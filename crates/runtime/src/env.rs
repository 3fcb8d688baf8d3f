//! Environment knobs read one way: a variable that is unset is `None`,
//! one that is set must parse, and one that does not is an error naming
//! the variable and what it accepts. A front end (`tgl`) turns the error
//! into a usage error; a library caller falls back to its default.

/// The value of the environment variable `var` read through `parse`
/// (after trimming): `Ok(None)` when it is unset.
///
/// # Errors
///
/// A value that is not unicode or that `parse` rejects: the one-line
/// message `"{var}: expected {accepts}, got {value:?}"`.
pub fn parse<T>(var: &str, accepts: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<Option<T>, String> {
    let Some(v) = std::env::var_os(var) else {
        return Ok(None);
    };
    match v.to_str().map(str::trim).and_then(parse) {
        Some(value) => Ok(Some(value)),
        None => Err(format!("{var}: expected {accepts}, got {v:?}")),
    }
}

/// [`parse`] for a count: a positive integer.
///
/// # Errors
///
/// As [`parse`], for zero, a negative number or anything not a number.
pub fn positive(var: &str) -> Result<Option<usize>, String> {
    parse(var, "a positive integer", |s| s.parse().ok().filter(|&n| n >= 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_set_and_unusable_values() {
        // A name no other test reads.
        const VAR: &str = "TGL_RUNTIME_ENV_TEST_COUNT";
        std::env::remove_var(VAR);
        assert_eq!(positive(VAR), Ok(None));
        std::env::set_var(VAR, " 3 ");
        assert_eq!(positive(VAR), Ok(Some(3)));
        for bad in ["0", "two", "-1", ""] {
            std::env::set_var(VAR, bad);
            let err = positive(VAR).unwrap_err();
            assert_eq!(err, format!("{VAR}: expected a positive integer, got {bad:?}"));
        }
        std::env::remove_var(VAR);
    }
}
