//! Scenario files are outside input: a truncated or corrupted scenario
//! must come back from `io::from_json` as an error, never as a panic,
//! and nesting past the parser's limit is refused before it can
//! overflow the stack.

use std::sync::OnceLock;

use proptest::prelude::*;
use topogen::io::{self, LoadError};

fn scenario() -> &'static [u8] {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| io::to_json(&topogen::internet2(2010))).as_bytes()
}

/// Loads `bytes` as a scenario, decoding invalid UTF-8 lossily.
/// Returning at all (`Ok` or `Err`) is the property.
fn load(bytes: &[u8]) -> Result<(), LoadError> {
    io::from_json(&String::from_utf8_lossy(bytes)).map(drop)
}

proptest! {
    #[test]
    fn truncated_scenarios_load_or_fail_cleanly(cut in 0usize..1 << 20) {
        let text = scenario();
        let cut = cut % text.len();
        // The document ends at its closing brace, so every cut short
        // of it is an error.
        prop_assert!(load(&text[..cut]).is_err());
    }

    #[test]
    fn corrupted_scenarios_load_or_fail_cleanly(
        edits in proptest::collection::vec((any::<usize>(), any::<u8>(), any::<bool>()), 1..8),
    ) {
        let mut text = scenario().to_vec();
        for (at, byte, delete) in edits {
            let at = at % text.len();
            if delete {
                text.remove(at);
            } else {
                text[at] ^= byte.max(1);
            }
        }
        let _ = load(&text);
    }
}

#[test]
fn the_uncorrupted_scenario_loads() {
    assert!(load(scenario()).is_ok());
}

#[test]
fn nesting_past_the_limit_is_a_json_error() {
    let nested = |depth: usize| format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
    // 128 levels are JSON, just not a scenario.
    assert!(matches!(io::from_json(&nested(128)), Err(LoadError::Shape(_))));
    let err = io::from_json(&nested(129)).unwrap_err();
    assert!(matches!(err, LoadError::Json(_)), "{err}");
    assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
}
