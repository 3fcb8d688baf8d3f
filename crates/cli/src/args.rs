//! The flag parser is `tgl_harness::Args`, shared with the quickstart
//! example; the CLI's parsing contract is tested here, next to the
//! flags it defines.

pub use tgl_harness::Args;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_values() {
        let a = parse("train --model tgat --epochs 3 --opt-all");
        assert_eq!(a.subcommand(), Some("train"));
        assert_eq!(a.get("model"), Some("tgat"));
        assert_eq!(a.get_or("epochs", 1usize), Ok(3));
        assert!(a.has_flag("opt-all"));
        assert!(!a.has_flag("move"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("train");
        assert_eq!(a.get_or("batch", 200usize), Ok(200));
        assert_eq!(a.get("model"), None);
    }

    #[test]
    fn flag_before_value_option() {
        let a = parse("eval --quiet --lr 0.01");
        assert!(a.has_flag("quiet"));
        assert_eq!(a.get_or("lr", 0.0f32), Ok(0.01));
    }

    #[test]
    fn bad_value_is_an_error_naming_the_flag() {
        let a = parse("train --epochs banana --seed -1");
        assert_eq!(a.get_or("epochs", 1usize), Err("--epochs: cannot parse \"banana\" (expected usize)".into()));
        assert!(a.get_or("seed", 42u64).unwrap_err().starts_with("--seed: cannot parse \"-1\""));
    }

    #[test]
    fn no_subcommand() {
        let a = parse("--help");
        assert_eq!(a.subcommand(), None);
        assert!(a.has_flag("help"));
    }
}
