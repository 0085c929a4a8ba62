//! Shared experiment runner: every table and figure of the paper's
//! evaluation section (§V) is regenerated through this harness. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for the
//! measured-vs-paper record.

pub mod baseline;
pub mod benchfile;
pub mod cli;
pub mod json;
pub mod paper;
pub mod report;
pub mod runner;

pub use runner::{run, run_modes, try_run, ExperimentMode, RunResult, WorkloadKind};

/// Round trips through [`json`] as the binaries use it: a tree written,
/// read back, and its leaves taken out with the typed accessors.
#[cfg(test)]
mod tests {
    use crate::json::Json;

    fn reread(v: &Json, text: String) -> Json {
        let back = Json::parse(text.as_bytes()).unwrap();
        assert_eq!(&back, v, "{text}");
        back
    }

    #[test]
    fn roundtrip_containers() {
        let pairs = [(1u64, 0.5f64), (2, 1.0)];
        let pair = |&(n, f): &(u64, f64)| Json::Arr(vec![n.into(), f.into()]);
        let v = Json::Arr(pairs.iter().map(pair).collect());
        let back = reread(&v, v.to_compact());
        let read: Vec<(u64, f64)> = back
            .as_arr()
            .unwrap()
            .iter()
            .map(|pair| match pair.as_arr().unwrap() {
                [n, f] => (n.num().unwrap(), f.num().unwrap()),
                other => panic!("pair of {} items", other.len()),
            })
            .collect();
        assert_eq!(read, pairs);
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = Json::Arr(vec![1u64.into(), 2u64.into(), 3u64.into()]);
        let text = v.to_pretty();
        assert!(text.contains("\n  1"), "{text}");
        let back = reread(&v, text);
        let read: Vec<u64> = back.as_arr().unwrap().iter().map(|n| n.num().unwrap()).collect();
        assert_eq!(read, [1, 2, 3]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\none \"two\" \\ three\ttab";
        let v = Json::from(s);
        for text in [v.to_compact(), v.to_pretty()] {
            assert!(!text.contains('\n'), "{text}");
            assert_eq!(reread(&v, text).as_str(), Some(s));
        }
    }

    #[test]
    fn type_errors_are_reported() {
        assert_eq!(Json::from("x").num::<u64>(), None);
        assert_eq!(Json::Bool(true).num::<u64>(), None);
        assert_eq!(Json::from(1u64).as_str(), None);
        assert_eq!(Json::from(1u64).as_arr(), None);
        assert_eq!(Json::Arr(vec![1u64.into()]).get("a"), None);
        assert_eq!(Json::from(1.5).num::<u64>(), None);
    }

    #[test]
    fn negative_and_float_numbers() {
        let v = Json::parse(b"-12").unwrap();
        assert_eq!(v.num::<i64>(), Some(-12));
        assert_eq!(v.num::<u64>(), None);
        let f = Json::parse(b"2.5e3").unwrap();
        assert_eq!(f.num::<f64>(), Some(2500.0));
        assert_eq!(f.to_compact(), "2.5e3");
    }
}
