//! Background registry sampler: a thread that snapshots the registry on a
//! fixed cadence into a bounded in-memory time series.
//!
//! Two things wake the sampler: its timer tick, and [`pulse`] — an
//! edge-trigger the engines fire at phase boundaries. Timed ticks give
//! the series its even spine; pulses guarantee that short phases (a
//! 5 ms selection pass at the end of a long run) still land at least one
//! sample with their gauge values visible, no matter the cadence.
//!
//! The series is memory-bounded: when it reaches its cap the sampler
//! halves the resolution (drops every other retained sample and doubles
//! its tick interval), so an arbitrarily long run costs `O(cap)` memory
//! and keeps an evenly spaced view of its whole history — the classic
//! downsample-by-two scheme flight recorders use.

use crate::{snapshot, Metric, SCHEMA};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default cap on retained samples (~900 KiB of series at the full
/// [`crate::HIST_BUCKETS`]-wide row size).
pub const DEFAULT_SAMPLE_CAP: usize = 2048;

/// One sampler tick: every registry cell at one instant.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Milliseconds since [`crate::enable`].
    pub t_ms: u64,
    /// Cell values in [`Metric::ALL`] order.
    pub values: [u64; Metric::COUNT],
    /// RRR-size histogram buckets.
    pub hist: [u64; crate::HIST_BUCKETS],
    /// Total histogram observations.
    pub hist_count: u64,
    /// Sum of all observed values.
    pub hist_sum: u64,
}

impl Sample {
    /// Value of `metric` in this sample.
    #[must_use]
    pub fn value(&self, metric: Metric) -> u64 {
        self.values[metric as usize]
    }
}

/// Per-tick observer, called on the sampler thread — the CLI hangs its
/// `--progress` heartbeat here. Pulse-triggered samples do not fire the
/// observer (they would make heartbeat spacing erratic).
pub type ProgressFn = Box<dyn FnMut(&Sample) + Send>;

/// The finished product of a sampler session.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    /// The cadence the sampler was started with, milliseconds.
    pub interval_ms: u64,
    /// How many times the series halved its resolution to stay bounded
    /// (the effective tail cadence is `interval_ms << downsample_halvings`).
    pub downsample_halvings: u32,
    /// Retained samples, oldest first. The first sample is taken at
    /// start, the last right after shutdown is requested, so a series
    /// always brackets the run it observed.
    pub samples: Vec<Sample>,
}

impl TimeSeries {
    /// Serializes the series as schema-versioned JSON
    /// (`ripples-metrics-v2`). Rows are columnar-compact: `"v"` holds the
    /// values of the live catalog rows in the order given by the top-level
    /// `"metrics"` header, so the file is self-describing without repeating
    /// names per row.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.samples.len() * 256);
        let _ = write!(
            out,
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"rank_policy\": \"reduced\",\n  \"interval_ms\": {},\n  \"downsample_halvings\": {},\n  \"metrics\": [",
            self.interval_ms, self.downsample_halvings
        );
        for (i, metric) in Metric::live().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\": \"{}\", \"kind\": \"{}\", \"unit\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                metric.name(),
                metric.row().kind.exposition(),
                metric.row().unit
            );
        }
        out.push_str("\n  ],\n  \"rrr_size_hist\": {\"buckets\": \"pow2\", \"len\": ");
        let _ = write!(out, "{}", crate::HIST_BUCKETS);
        out.push_str("},\n  \"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"t_ms\": {}, \"v\": [",
                if i == 0 { "" } else { "," },
                s.t_ms
            );
            for (j, metric) in Metric::live().enumerate() {
                let _ = write!(out, "{}{}", if j == 0 { "" } else { "," }, s.value(metric));
            }
            let _ = write!(
                out,
                "], \"hist_count\": {}, \"hist_sum\": {}, \"hist\": [",
                s.hist_count, s.hist_sum
            );
            for (j, v) in s.hist.iter().enumerate() {
                let _ = write!(out, "{}{v}", if j == 0 { "" } else { "," });
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Wake-up channel between record sites ([`pulse`]) and the sampler
/// thread: a counter under a mutex plus a condvar the thread parks on.
struct Signal {
    state: Mutex<SignalState>,
    cv: Condvar,
}

struct SignalState {
    stop: bool,
    pulses: u64,
}

enum Wake {
    Tick,
    Pulse,
    Stop,
}

/// The signal of the currently running sampler, if any — the target of
/// [`pulse`]. One sampler at a time; starting a second replaces the
/// slot (both keep running, but only the newest gets pulses).
static ACTIVE: Mutex<Option<Arc<Signal>>> = Mutex::new(None);

/// Edge-trigger: asks the running sampler (if any) to snapshot now
/// instead of waiting out its tick. Engines call this at phase
/// boundaries so even sub-cadence phases appear in the series. Cheap
/// no-op when no sampler is running; never blocks on the sampler.
pub fn pulse() {
    let sig = ACTIVE.lock().ok().and_then(|guard| guard.clone());
    if let Some(sig) = sig {
        if let Ok(mut st) = sig.state.lock() {
            st.pulses += 1;
            sig.cv.notify_all();
        }
    }
}

/// Handle to a running sampler thread. Dropping it without calling
/// [`SamplerHandle::finalize`] stops and joins the thread, discarding
/// the series.
pub struct SamplerHandle {
    signal: Arc<Signal>,
    thread: Option<JoinHandle<TimeSeries>>,
}

impl SamplerHandle {
    /// Stops the sampler and returns its series. The thread takes one
    /// last snapshot after seeing the stop flag, so the series always
    /// includes the final registry state; no samples are appended after
    /// this returns.
    #[must_use]
    pub fn finalize(mut self) -> TimeSeries {
        self.shutdown();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(series)) => series,
            _ => TimeSeries {
                interval_ms: 0,
                downsample_halvings: 0,
                samples: Vec::new(),
            },
        }
    }

    fn shutdown(&self) {
        if let Ok(mut st) = self.signal.state.lock() {
            st.stop = true;
            self.signal.cv.notify_all();
        }
        if let Ok(mut active) = ACTIVE.lock() {
            if active
                .as_ref()
                .is_some_and(|sig| Arc::ptr_eq(sig, &self.signal))
            {
                *active = None;
            }
        }
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Starts a sampler thread ticking every `interval`, retaining at most
/// `DEFAULT_SAMPLE_CAP` samples.
#[must_use]
pub fn start_sampler(interval: Duration, observer: Option<ProgressFn>) -> SamplerHandle {
    start_sampler_with_cap(interval, DEFAULT_SAMPLE_CAP, observer)
}

/// [`start_sampler`] with an explicit sample cap (floored at 8); the cap
/// bounds series memory regardless of run length, cadence, or pulse
/// volume.
#[must_use]
pub fn start_sampler_with_cap(
    interval: Duration,
    cap: usize,
    mut observer: Option<ProgressFn>,
) -> SamplerHandle {
    let cap = cap.max(8);
    let interval = interval.max(Duration::from_millis(1));
    let signal = Arc::new(Signal {
        state: Mutex::new(SignalState {
            stop: false,
            pulses: 0,
        }),
        cv: Condvar::new(),
    });
    *ACTIVE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&signal));
    let sig = Arc::clone(&signal);
    let thread = std::thread::Builder::new()
        .name("ripples-metrics-sampler".into())
        .spawn(move || {
            let mut series = TimeSeries {
                interval_ms: interval.as_millis() as u64,
                downsample_halvings: 0,
                samples: vec![snapshot()],
            };
            let mut tick = interval;
            let mut seen = 0;
            loop {
                let wake = wait_next(&sig, tick, &mut seen);
                let sample = snapshot();
                if let (Some(f), Wake::Tick) = (observer.as_mut(), &wake) {
                    f(&sample);
                }
                series.samples.push(sample);
                if matches!(wake, Wake::Stop) {
                    break;
                }
                if series.samples.len() >= cap {
                    // Halve resolution: keep every other sample and slow
                    // the tick, so memory stays bounded and the retained
                    // points stay evenly spaced.
                    let mut keep = false;
                    series.samples.retain(|_| {
                        keep = !keep;
                        keep
                    });
                    tick = tick.saturating_mul(2);
                    series.downsample_halvings += 1;
                }
            }
            series
        })
        .expect("spawning metrics sampler thread");
    SamplerHandle {
        signal,
        thread: Some(thread),
    }
}

/// Parks until the next tick deadline, a pulse past the `seen` ones, or
/// stop — whichever comes first. A pulse sent while the sampler was not
/// parked (while it took a snapshot, or before it first parked) wakes it
/// at once rather than being lost.
fn wait_next(sig: &Signal, tick: Duration, seen: &mut u64) -> Wake {
    let deadline = Instant::now() + tick;
    let mut st = sig
        .state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        if st.stop {
            return Wake::Stop;
        }
        if st.pulses != *seen {
            *seen = st.pulses;
            return Wake::Pulse;
        }
        let now = Instant::now();
        if now >= deadline {
            return Wake::Tick;
        }
        st = match sig.cv.wait_timeout(st, deadline - now) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::lock;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn sampler_brackets_the_run_and_stops() {
        let _g = lock();
        crate::enable();
        let handle = start_sampler(Duration::from_millis(5), None);
        crate::add(Metric::SamplesGenerated, 41);
        std::thread::sleep(Duration::from_millis(30));
        crate::add(Metric::SamplesGenerated, 1);
        let series = handle.finalize();
        crate::disable();
        assert!(series.samples.len() >= 3, "start + ticks + final");
        let last = series.samples.last().expect("non-empty");
        assert_eq!(
            last.value(Metric::SamplesGenerated),
            42,
            "final sample sees final state"
        );
    }

    #[test]
    fn tiny_cadence_stays_bounded() {
        let _g = lock();
        crate::enable();
        let handle = start_sampler_with_cap(Duration::from_millis(1), 16, None);
        std::thread::sleep(Duration::from_millis(120));
        let series = handle.finalize();
        crate::disable();
        assert!(
            series.samples.len() <= 16,
            "cap respected: {}",
            series.samples.len()
        );
        assert!(
            series.downsample_halvings >= 1,
            "tiny cadence must downsample"
        );
    }

    #[test]
    fn pulses_insert_samples_between_ticks() {
        let _g = lock();
        crate::enable();
        // Slow cadence: every retained mid-run sample must come from a
        // pulse, not the timer.
        let handle = start_sampler(Duration::from_secs(60), None);
        for i in 0..5 {
            crate::set(Metric::Phase, i);
            pulse();
            std::thread::sleep(Duration::from_millis(5));
        }
        let series = handle.finalize();
        crate::disable();
        assert!(
            series.samples.len() >= 6,
            "5 pulses + brackets, got {}",
            series.samples.len()
        );
    }

    #[test]
    fn pulse_without_sampler_is_a_noop() {
        let _g = lock();
        pulse(); // must not panic or block
    }

    #[test]
    fn json_is_valid_and_versioned() {
        let _g = lock();
        crate::enable();
        crate::observe_rrr_size(9);
        let handle = start_sampler(Duration::from_millis(2), None);
        std::thread::sleep(Duration::from_millis(10));
        let series = handle.finalize();
        crate::disable();
        let json = series.to_json();
        ripples_trace::json::parse(&json).expect("series must be valid JSON");
        assert!(json.contains("\"schema\": \"ripples-metrics-v2\""));
        assert!(json.contains("\"rank_policy\": \"reduced\""));
        assert!(json.contains("\"samples_generated\""));
    }

    #[test]
    fn observer_sees_ticks() {
        let _g = lock();
        crate::enable();
        let seen = Arc::new(AtomicBool::new(false));
        let seen_cb = Arc::clone(&seen);
        let handle = start_sampler(
            Duration::from_millis(2),
            Some(Box::new(move |s: &Sample| {
                if s.t_ms > 0 {
                    seen_cb.store(true, Ordering::SeqCst);
                }
            })),
        );
        std::thread::sleep(Duration::from_millis(30));
        let _ = handle.finalize();
        crate::disable();
        assert!(seen.load(Ordering::SeqCst), "observer must fire on ticks");
    }
}
