//! Shared plumbing for the command-line binaries (`reproduce`,
//! `piton-serve`, `piton-client`).
//!
//! The yardstick for speed is the repo benchmark under `benchmark/`;
//! this crate only holds what the binaries have in common.

/// The value of flag `--NAME`: `--NAME=VALUE` anywhere in `args`, else
/// `--NAME VALUE`, else the environment variable `env`, if any.
///
/// # Examples
///
/// ```
/// let args: Vec<String> = ["quick", "--jobs", "4"].map(String::from).to_vec();
/// assert_eq!(piton_bench::flag_value(&args, "jobs", None).as_deref(), Some("4"));
/// ```
#[must_use]
pub fn flag_value(args: &[String], name: &str, env: Option<&str>) -> Option<String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    args.iter()
        .find_map(|a| a.strip_prefix(&prefixed).map(str::to_owned))
        .or_else(|| {
            let i = args.iter().position(|a| *a == long)?;
            args.get(i + 1).cloned()
        })
        .or_else(|| std::env::var(env?).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|&a| a.to_owned()).collect()
    }

    #[test]
    fn flag_value_prefers_equals_then_space_then_environment() {
        // A variable only this test reads, so no other test can race it.
        let env = "PITON_BENCH_FLAG_VALUE_TEST";
        std::env::set_var(env, "from-env");
        let cases: [(&[&str], Option<&str>); 5] = [
            (&["--x", "space", "--x=equals"], Some("equals")),
            (&["--x=equals"], Some("equals")),
            (&["quick", "--x", "space"], Some("space")),
            (&["--x"], Some("from-env")),
            (&["--xy=other", "x=bare"], Some("from-env")),
        ];
        for (list, want) in cases {
            assert_eq!(
                flag_value(&args(list), "x", Some(env)).as_deref(),
                want,
                "{list:?}"
            );
        }
        std::env::remove_var(env);
        assert_eq!(flag_value(&args(&["--x"]), "x", Some(env)), None);
        assert_eq!(flag_value(&args(&["--x"]), "x", None), None);
    }
}
