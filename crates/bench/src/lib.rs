//! Shared plumbing for the command-line binaries (`reproduce`,
//! `piton-serve`, `piton-client`).
//!
//! The yardstick for speed is the repo benchmark under `benchmark/`;
//! this crate only holds what the binaries have in common. A run reads
//! its settings from its command line alone: no environment variable
//! changes what a binary does.

/// The value of flag `--NAME`: `--NAME=VALUE` anywhere in `args`, else
/// `--NAME VALUE`.
///
/// # Examples
///
/// ```
/// let args: Vec<String> = ["quick", "--jobs", "4"].map(String::from).to_vec();
/// assert_eq!(piton_bench::flag_value(&args, "jobs").as_deref(), Some("4"));
/// ```
#[must_use]
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    args.iter()
        .find_map(|a| a.strip_prefix(&prefixed).map(str::to_owned))
        .or_else(|| {
            let i = args.iter().position(|a| *a == long)?;
            args.get(i + 1).cloned()
        })
}

/// The first argument after the program name that is neither
/// `--NAME VALUE` / `--NAME=VALUE` for one of `flags` nor one of
/// `words`. A word ending in `=` (such as `csv=`) also matches any
/// argument it prefixes.
///
/// # Examples
///
/// ```
/// let args: Vec<String> = ["reproduce", "quik", "--jobs", "4"].map(String::from).to_vec();
/// assert_eq!(piton_bench::unknown_arg(&args, &["jobs"], &["quick"]), Some("quik"));
/// ```
#[must_use]
pub fn unknown_arg<'a>(args: &'a [String], flags: &[&str], words: &[&str]) -> Option<&'a str> {
    let mut rest = args.iter().skip(1);
    while let Some(a) = rest.next() {
        let flag = a.strip_prefix("--").map(|f| {
            f.split_once('=')
                .map_or((f, false), |(name, _)| (name, true))
        });
        match flag {
            Some((name, inline)) if flags.contains(&name) => {
                if !inline {
                    rest.next();
                }
            }
            _ if words
                .iter()
                .any(|w| a == w || (w.ends_with('=') && a.starts_with(w))) => {}
            _ => return Some(a),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn flag_value_prefers_equals_then_space() {
        let cases: [(&[&str], Option<&str>); 5] = [
            (&["--x", "space", "--x=equals"], Some("equals")),
            (&["--x=equals"], Some("equals")),
            (&["quick", "--x", "space"], Some("space")),
            (&["--x"], None),
            (&["--xy=other", "x=bare"], None),
        ];
        for (list, want) in cases {
            assert_eq!(flag_value(&args(list), "x").as_deref(), want, "{list:?}");
        }
    }

    #[test]
    fn unknown_arg_names_the_first_stranger() {
        let flags = ["jobs", "trace"];
        let words = ["quick", "--resume", "csv="];
        let cases: [(&[&str], Option<&str>); 8] = [
            (&["bin"], None),
            (
                &["bin", "quick", "--jobs", "4", "csv=out", "--resume"],
                None,
            ),
            (&["bin", "--jobs=4", "--trace", "engine"], None),
            // A flag's value is never itself checked.
            (&["bin", "--trace", "quik"], None),
            (&["bin", "quik"], Some("quik")),
            (&["bin", "quick", "--job", "4"], Some("--job")),
            (&["bin", "jobs=4"], Some("jobs=4")),
            (&["bin", "--resume=yes"], Some("--resume=yes")),
        ];
        for (list, want) in cases {
            assert_eq!(unknown_arg(&args(list), &flags, &words), want, "{list:?}");
        }
    }
}
