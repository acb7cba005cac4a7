//! The `key=value[,key=value...]` specs that configure fault injection
//! (`dresar probe --faults`, the `faults` field of a run request) and
//! serve-tier chaos (`dresar_serve --chaos`).
//!
//! [`items`] splits a spec into its items and [`Item::num`] parses a
//! numeric value; each error message names the spec kind (`what`), so a
//! refused spec reads the same wherever it was given.

/// One `key=value` item of a spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item<'a> {
    what: &'static str,
    /// The text before the first `=`.
    pub key: &'a str,
    /// The text after the first `=`.
    pub value: &'a str,
}

impl Item<'_> {
    /// The value as a non-negative integer.
    pub fn num(&self) -> Result<u64, String> {
        let Item { what, key, value } = self;
        value.parse::<u64>().map_err(|_| format!("{what} {key}='{value}': not a number"))
    }

    /// The error for a key the spec does not know.
    pub fn unknown_key(&self) -> String {
        format!("{}: unknown key '{}'", self.what, self.key)
    }
}

/// The items of `spec`, a comma-separated list of `key=value` items;
/// blank items and the whitespace around each item are skipped. An item
/// without `=` is an error naming `what` the spec is.
pub fn items<'a>(
    what: &'static str,
    spec: &'a str,
) -> impl Iterator<Item = Result<Item<'a>, String>> {
    spec.split(',').map(str::trim).filter(|p| !p.is_empty()).map(move |part| {
        let (key, value) =
            part.split_once('=').ok_or_else(|| format!("{what} item '{part}' is not key=value"))?;
        Ok(Item { what, key, value })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_split_trim_and_skip_blanks() {
        let got: Vec<_> = items("spec", " a=1 ,, b= x=y ,").collect::<Result<_, _>>().unwrap();
        let pairs: Vec<_> = got.iter().map(|i| (i.key, i.value)).collect();
        assert_eq!(pairs, [("a", "1"), ("b", " x=y")]);
        assert_eq!(got[0].num(), Ok(1));
    }

    #[test]
    fn errors_name_the_spec() {
        let err = items("fault spec", "seed=1,oops").find_map(Result::err);
        assert_eq!(err.as_deref(), Some("fault spec item 'oops' is not key=value"));
        let item = items("serve chaos", "seed=x").next().unwrap().unwrap();
        assert_eq!(item.num(), Err("serve chaos seed='x': not a number".into()));
        assert_eq!(item.unknown_key(), "serve chaos: unknown key 'seed'");
    }
}
