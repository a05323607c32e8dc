//! The bench-side span recorder behind `--trace 1`: a span around every
//! call into a layer's public functions, recorded from the benchmark's
//! own files (nothing is recorded inside the engine). Spans stay in
//! memory and are written out when the run ends.

use std::time::Instant;

use crate::json::Json;

/// One recorded interval. `parent` is an index into the recorder's span
/// list (`NONE` for a job's root span); spans of one job share `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub job: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NONE: u32 = u32::MAX;

/// The trace file keeps every span up to this many; per-name totals
/// always cover all of them.
const FILE_SPAN_CAP: usize = 200_000;

/// Room for the spans of the longest allowed traced run of the fastest
/// workload.
const SPAN_RESERVE: usize = 1 << 23;

pub struct Recorder {
    /// Off = every call below is a branch and nothing else, so the
    /// untraced pass runs the same code without the clock reads.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    job: u32,
}

/// Handle returned by [`Recorder::begin`]; `NONE` while recording is off.
#[derive(Clone, Copy)]
pub struct Open(u32);

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { on: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), job: 0 }
    }

    /// A recorder whose span list is reserved once and never grows, for
    /// the same reasons `Sink::reserved` is (see there).
    pub fn reserved() -> Recorder {
        Recorder { spans: Vec::with_capacity(SPAN_RESERVE), ..Recorder::new() }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a job's root span; later spans nest under it until it ends.
    pub fn begin_job(&mut self, job: u32) -> Open {
        self.job = job;
        self.begin("job")
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NONE);
        let start_ns = self.clock_ns();
        self.spans.push(Span { name, job: self.job, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let now = self.clock_ns();
        self.spans[open.0 as usize].end_ns = now;
        // Spans close innermost-first; anything left open above this one
        // (an early `?` return) is closed at the same instant.
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == open.0 {
                break;
            }
        }
    }

    /// Opens a root span *outside* the nesting stack, for jobs whose
    /// lifetimes interleave (a driver with several served jobs in flight):
    /// children attach through [`Recorder::synthetic`], and
    /// [`Recorder::close`] ends it.
    pub fn open_root(&mut self, job: u32) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let start_ns = self.clock_ns();
        self.spans.push(Span { name: "job", job, parent: NONE, start_ns, end_ns: start_ns });
        Open(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 != NONE {
            self.spans[open.0 as usize].end_ns = self.clock_ns();
        }
    }

    /// A span whose interval was measured elsewhere (the serving engine
    /// reports queue delay and latency per job), as a child of `parent`.
    pub fn synthetic(&mut self, name: &'static str, parent: Open, start_ns: u64, len_ns: u64) {
        if parent.0 != NONE {
            let job = self.spans[parent.0 as usize].job;
            let end_ns = start_ns + len_ns;
            self.spans.push(Span { name, job, parent: parent.0, start_ns, end_ns });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy seconds summed over every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>()
            as f64
            / 1e9
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let selfs = self_times(&self.spans);
        let mut names: Vec<&'static str> = Vec::new();
        let mut totals: Vec<(u64, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let i = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                totals.push((0, 0, 0));
                names.len() - 1
            });
            totals[i].0 += 1;
            totals[i].1 += s.end_ns - s.start_ns;
            totals[i].2 += self_ns;
        }
        let by_name = names.iter().zip(&totals).map(|(n, (count, total, own))| {
            Json::obj([
                ("name", Json::str(*n)),
                ("count", Json::Num(*count as f64)),
                ("total_s", Json::Num(*total as f64 / 1e9)),
                ("self_s", Json::Num(*own as f64 / 1e9)),
            ])
        });
        let rows = self.spans.iter().take(FILE_SPAN_CAP).enumerate().map(|(id, s)| {
            let name = names.iter().position(|n| *n == s.name).expect("every name was indexed");
            let parent = if s.parent == NONE { -1.0 } else { f64::from(s.parent) };
            Json::Arr(vec![
                Json::Num(id as f64),
                Json::Num(parent),
                Json::Num(f64::from(s.job)),
                Json::Num(name as f64),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("span_count", Json::Num(self.spans.len() as f64)),
            ("truncated", Json::Bool(self.spans.len() > FILE_SPAN_CAP)),
            ("by_name", Json::Arr(by_name.collect())),
            ("names", Json::Arr(names.iter().map(|n| Json::str(*n)).collect())),
            ("columns", Json::str("id, parent, job, name, start_ns, end_ns")),
            ("spans", Json::Arr(rows.collect())),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (a
/// served job's synthetic `queue_wait`/`run` spans, concurrent jobs under
/// one driver span), so the covered part is the length of the *union* of
/// the child intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "x", job: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(NONE, 0, 100), // root
            span(0, 10, 40),    // child A
            span(0, 30, 60),    // child B overlaps A: union is 10..60
            span(0, 80, 90),    // child C, disjoint
            span(1, 15, 20),    // grandchild: only A's self time sees it
            span(0, 95, 120),   // child D runs past the root: clipped to 95..100
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (50 + 10 + 5));
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut r = Recorder::new();
        let a = r.begin("ignored");
        r.end(a);
        assert!(r.spans().is_empty(), "off: nothing recorded");

        r.on = true;
        let job = r.begin_job(7);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        r.end(inner);
        r.end(outer);
        let sibling = r.begin("sibling");
        r.end(sibling);
        r.end(job);
        let s = r.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["job", "outer", "inner", "sibling"]
        );
        assert_eq!(s.iter().map(|s| s.parent).collect::<Vec<_>>(), [NONE, 0, 1, 0]);
        assert!(s.iter().all(|s| s.job == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns && s[1].end_ns >= s[2].end_ns);
    }

    #[test]
    fn ending_an_outer_span_closes_what_is_still_open_inside_it() {
        let mut r = Recorder::new();
        r.on = true;
        let outer = r.begin("outer");
        let _leaked = r.begin("inner");
        r.end(outer);
        let next = r.begin("next");
        r.end(next);
        assert_eq!(r.spans()[2].parent, NONE, "the stack was unwound past the leaked span");
    }
}
