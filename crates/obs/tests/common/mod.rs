//! An exchange log with its sessions' lines interleaved, as a `--jobs N`
//! run writes them, made from a session-contiguous one.

use std::collections::{BTreeMap, VecDeque};

/// `log` with the lines after its header merged in an order drawn from
/// `seed`: every interleaving of the sessions is equally likely, and
/// each session's lines, its report line included, keep their order.
pub fn interleave(log: &str, seed: u64) -> String {
    let mut lines = log.lines();
    let mut out = vec![lines.next().expect("a log has a header")];
    let mut sessions: BTreeMap<u64, VecDeque<&str>> = BTreeMap::new();
    for line in lines {
        let value: serde_json::Value = serde_json::from_str(line).expect("the log is JSON");
        let session = value["session"].as_u64().expect("every line has a session");
        sessions.entry(session).or_default().push_back(line);
    }
    let mut state = seed;
    for left in (1..=log.lines().count() - 1).rev() {
        let mut pick = (splitmix(&mut state) % left as u64) as usize;
        for queue in sessions.values_mut() {
            if pick < queue.len() {
                out.push(queue.pop_front().expect("the queue is not empty"));
                break;
            }
            pick -= queue.len();
        }
    }
    out.join("\n") + "\n"
}

/// The next number of the SplitMix64 sequence at `state`.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
