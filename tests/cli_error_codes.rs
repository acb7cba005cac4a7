//! The `dresar` CLI and the serve tier classify bad input with one
//! vocabulary: every code the command-line parser can report must be the
//! code `ServeError` reports for the same mistake in a `/run` request.

use dresar_bench::cli::ErrorCode;
use dresar_server::ServeError;

#[test]
fn every_cli_error_code_is_a_serve_error_code() {
    for code in ErrorCode::ALL {
        let serve = match code {
            ErrorCode::UnknownField => ServeError::UnknownField(String::new()),
            ErrorCode::BadField => ServeError::BadField(String::new()),
            ErrorCode::BadScale => ServeError::BadScale(String::new()),
            ErrorCode::BadFaults => ServeError::BadFaults(String::new()),
            ErrorCode::NotFound => ServeError::NotFound(String::new()),
        };
        assert_eq!(code.as_str(), serve.code(), "{code:?}");
    }
}
