//! A loaded exchange log costs about its text, not a decoded copy: each
//! report is kept as its compact JSON text, and each session's probe and
//! decision lines are indexed by runs of consecutive lines, 8 bytes a
//! run. A session-contiguous log (every `--jobs 1` log) has one run per
//! session, so it costs nothing per line; an interleaved one costs at
//! most 8 bytes a line. A counting allocator tracks the live bytes of
//! the allocating thread, so the test harness's own threads cannot
//! disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obs::ExchangeLog;

mod common;

/// Tracks the live heap bytes of the current thread.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: usize, sign: isize) {
    LIVE.with(|live| live.set(live.get() + sign * bytes as isize));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every call goes straight to `System`; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(layout.size(), -1);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(layout.size(), -1);
        add(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn golden() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../cli/tests/golden/internet2-seed2010.jsonl");
    std::fs::read_to_string(path).expect("the golden log is checked in")
}

/// Parses `text` and checks that the log holds at most its reports'
/// compact text, `per_line` bytes for each probe or decision line, each
/// session's entry in the session map (a few hundred bytes with the
/// table's spare room), and the header's options and target list.
fn assert_holds_at_most(text: &str, per_line: usize) {
    let before = live();
    let log = ExchangeLog::parse(text).expect("the log parses");
    let held = live() - before;

    let report_text: usize = log.reports().iter().map(|(_, r)| r.to_string().len()).sum();
    let lines = text.lines().skip(1).filter(|l| !l.starts_with(r#"{"type":"report""#)).count();
    let sessions = log.header.targets.len();
    let bound = report_text + per_line * lines + 256 * sessions + 2048;
    assert!(
        held <= bound as isize,
        "the log holds {held} bytes, over {bound}: {report_text} of report text, \
         {lines} lines at {per_line} bytes, {sessions} sessions"
    );
}

#[test]
fn a_session_contiguous_log_holds_its_report_text_and_nothing_per_line() {
    assert_holds_at_most(&golden(), 0);
}

#[test]
fn an_interleaved_log_holds_at_most_an_offset_per_line() {
    let golden = golden();
    for seed in [1, 2010, 424242] {
        let text = common::interleave(&golden, seed);
        assert_ne!(text, golden, "seed {seed} interleaves the sessions");
        assert_holds_at_most(&text, 8);
    }
}
