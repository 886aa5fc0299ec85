//! A loaded exchange log costs about its text, not a decoded copy: the
//! probe and decision lines are indexed by offset, 8 bytes a line, and
//! each report is kept as its compact JSON text. A counting allocator
//! tracks the live bytes of the allocating thread, so the test harness's
//! own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obs::ExchangeLog;

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

#[test]
fn a_parsed_log_holds_its_report_text_and_an_offset_per_line() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../cli/tests/golden/internet2-seed2010.jsonl");
    let text = std::fs::read_to_string(path).expect("the golden log is checked in");
    let before = live();
    let log = ExchangeLog::parse(&text).expect("the golden log parses");
    let held = live() - before;

    // What the log may hold: each report's compact text, one offset per
    // probe or decision line, each session's entries in the line and
    // report maps (a few hundred bytes with the tables' spare room), and
    // the header's options and target list.
    let report_text: usize = log.reports().iter().map(|(_, r)| r.to_string().len()).sum();
    let lines = text.lines().skip(1).filter(|l| !l.starts_with(r#"{"type":"report""#)).count();
    let sessions = log.header.targets.len();
    let bound = report_text + 8 * lines + 256 * sessions + 2048;
    assert!(
        held <= bound as isize,
        "the log holds {held} bytes, over {bound}: {report_text} of report text, \
         {lines} lines, {sessions} sessions"
    );
}
