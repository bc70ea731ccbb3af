//! Multi-channel crossbar.
//!
//! Channel interleaving happens *outside* the controllers (paper Section
//! II-A/II-F): the crossbar routes each request to a channel based on the
//! address mapping's interleaving granularity (the span of the fields
//! below `Ch`, never less than a cache line: a line for the `..Ch`
//! mappings, a row buffer for `RoRaBaChCo`) and merges the controllers'
//! response streams. A [`MultiChannel`] is itself a
//! [`Controller`], so testers and the system model are oblivious to the
//! channel count — this is how the WideIO (4 channels), LPDDR3 (2
//! channels) and HMC-like (16 channels) configurations of Sections III-D
//! and IV-B are built.
//!
//! The crossbar obeys the controllers' own rule — execute only at events
//! (paper Section II-D). It caches every channel's
//! [`next_event`](Controller::next_event) tick in one contiguous vector,
//! refreshed after each `&mut` call into that channel (the only way the
//! tick can change, see the [`Controller`] contract), and
//! [`advance_to`](Controller::advance_to) calls into a channel only when
//! its cached tick is due. Due channels are still visited in index order,
//! so the stable merge of their responses by `ready_at` is byte-identical
//! to polling every channel: a channel with nothing due would have
//! appended nothing.

use dramctrl_kernel::snap::{SnapError, SnapReader, SnapState, SnapWriter};
use dramctrl_kernel::Tick;
use dramctrl_mem::{
    ActivityStats, AddrMapping, CommonStats, Controller, Decoder, MemCmd, MemRequest, MemResponse,
    MemSpec, Rejected,
};
use dramctrl_stats::Report;

/// A set of per-channel controllers behind an interleaving crossbar.
///
/// The crossbar adds a fixed `latency` to every response (modelling its
/// forward and return hops) and applies per-channel flow control: a
/// request is rejected only if *its* channel is full.
///
/// The crossbar itself observes nothing: DRAM activity is observed by
/// giving each channel controller its own probe.
///
/// # Example
/// ```
/// use dramctrl::{CtrlConfig, DramCtrl};
/// use dramctrl_mem::{presets, Controller, MemRequest, ReqId};
/// use dramctrl_system::MultiChannel;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Four WideIO channels, as in the paper's case study.
/// let mut xbar = MultiChannel::new(
///     (0..4)
///         .map(|_| {
///             let mut cfg = CtrlConfig::new(presets::wideio_200_x128());
///             cfg.channels = 4;
///             DramCtrl::new(cfg)
///         })
///         .collect::<Result<Vec<_>, _>>()?,
///     0,
/// )?;
/// xbar.try_send(MemRequest::read(ReqId(0), 0x40, 64), 0)?;
/// let mut out = Vec::new();
/// xbar.drain(&mut out);
/// assert_eq!(out.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MultiChannel<C: Controller> {
    channels: Vec<C>,
    /// `next_due[i]` is `channels[i].next_event()`, [`IDLE`] for `None`.
    /// Never assumed monotone — re-read after every `&mut` call into the
    /// channel (see [`with_channel`](Self::with_channel)).
    next_due: Vec<Tick>,
    /// The routing half of the controllers' address mapping.
    router: Decoder,
    latency: Tick,
}

/// Cached next-event tick of a channel with no event pending.
const IDLE: Tick = Tick::MAX;

/// Error constructing a [`MultiChannel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XbarError(String);

impl std::fmt::Display for XbarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid crossbar config: {}", self.0)
    }
}

impl std::error::Error for XbarError {}

impl<C: Controller> MultiChannel<C> {
    /// Creates a crossbar over the given controllers, which must share one
    /// device specification (organisation and mapping are read from the
    /// first).
    ///
    /// # Errors
    /// Returns an [`XbarError`] if no controllers are given or their specs
    /// differ.
    pub fn new(channels: Vec<C>, latency: Tick) -> Result<Self, XbarError> {
        let first = channels
            .first()
            .ok_or_else(|| XbarError("at least one channel required".into()))?;
        let spec = first.spec().clone();
        if channels.iter().any(|c| c.spec() != &spec) {
            return Err(XbarError("all channels must share one device spec".into()));
        }
        // The interleaving must match what the controllers decode. The
        // mapping is a controller-private parameter; we standardise on the
        // row-hit-friendly default unless told otherwise via `with_mapping`.
        let router = Decoder::new(AddrMapping::default(), &spec.org, channels.len() as u32);
        let next_due = channels.iter().map(due).collect();
        Ok(Self {
            channels,
            next_due,
            router,
            latency,
        })
    }

    /// Uses `mapping` for channel selection (must match the controllers'
    /// address mapping).
    pub fn with_mapping(mut self, mapping: AddrMapping) -> Self {
        self.router = Decoder::new(mapping, &self.channels[0].spec().org, self.channels());
        self
    }

    /// Consumes the crossbar, returning the channel controllers (e.g. to
    /// collect per-channel tracers at the end of a run).
    pub fn into_channels(self) -> Vec<C> {
        self.channels
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels.len() as u32
    }

    /// Access to an individual channel controller (e.g. for per-channel
    /// statistics).
    pub fn channel(&self, idx: usize) -> &C {
        &self.channels[idx]
    }

    #[inline]
    fn route(&self, addr: u64) -> usize {
        self.router.channel_of(addr) as usize
    }

    /// The one way to a `&mut` channel: runs `f` on channel `ch`, then
    /// re-reads its next-event tick, so no call can move a channel's next
    /// event behind the cache. (Hence no `channel_mut` either.)
    #[inline]
    fn with_channel<T>(&mut self, ch: usize, f: impl FnOnce(&mut C) -> T) -> T {
        let result = f(&mut self.channels[ch]);
        self.next_due[ch] = due(&self.channels[ch]);
        result
    }

    /// Adds the return-path latency to the newly appended responses and
    /// merges the channels' streams in ready order (stable, so equal
    /// ticks keep channel-index order) for deterministic delivery.
    fn merge_responses(&self, out: &mut [MemResponse]) {
        for resp in out.iter_mut() {
            resp.ready_at += self.latency;
        }
        out.sort_by_key(|r| r.ready_at);
    }
}

/// A channel's next-event tick as the cache holds it.
#[inline]
fn due<C: Controller>(channel: &C) -> Tick {
    channel.next_event().unwrap_or(IDLE)
}

impl<C: Controller> Controller for MultiChannel<C> {
    fn try_send(&mut self, req: MemRequest, now: Tick) -> Result<(), Rejected> {
        let ch = self.route(req.addr);
        self.with_channel(ch, |c| c.try_send(req, now))
    }

    fn can_accept(&self, cmd: MemCmd, addr: u64, size: u32) -> bool {
        self.channels[self.route(addr)].can_accept(cmd, addr, size)
    }

    /// Answered from the cached ticks; touches no channel.
    fn next_event(&self) -> Option<Tick> {
        self.next_due.iter().copied().min().filter(|&t| t != IDLE)
    }

    /// Advances the channels with an event due at or before `limit`, in
    /// index order; the rest would do nothing and are not called.
    fn advance_to(&mut self, limit: Tick, out: &mut Vec<MemResponse>) {
        let before = out.len();
        for ch in 0..self.channels.len() {
            if self.next_due[ch] <= limit {
                self.with_channel(ch, |c| c.advance_to(limit, out));
            }
        }
        if out.len() > before {
            self.merge_responses(&mut out[before..]);
        }
    }

    fn drain(&mut self, out: &mut Vec<MemResponse>) -> Tick {
        let before = out.len();
        let mut end = 0;
        for ch in 0..self.channels.len() {
            end = end.max(self.with_channel(ch, |c| c.drain(out)));
        }
        self.merge_responses(&mut out[before..]);
        end + self.latency
    }

    fn is_idle(&self) -> bool {
        self.channels.iter().all(|c| c.is_idle())
    }

    fn spec(&self) -> &MemSpec {
        self.channels[0].spec()
    }

    /// Aggregate statistics over all channels. Note that `bus_busy` is the
    /// *sum* of the channels' bus occupancy, so
    /// [`CommonStats::bus_utilisation`] must be divided by
    /// [`MultiChannel::channels`] to obtain the per-channel average.
    fn common_stats(&self) -> CommonStats {
        let mut total = CommonStats::default();
        for c in &self.channels {
            total += c.common_stats();
        }
        total
    }

    fn activity(&mut self, now: Tick) -> ActivityStats {
        let mut total = ActivityStats::default();
        for ch in 0..self.channels.len() {
            total += self.with_channel(ch, |c| c.activity(now));
        }
        total
    }

    fn report(&self, prefix: &str, now: Tick) -> Report {
        let mut r = Report::new(prefix);
        r.counter("channels", u64::from(self.channels()));
        let stats = self.common_stats();
        r.counter("rd_bursts", stats.rd_bursts);
        r.counter("wr_bursts", stats.wr_bursts);
        r.scalar(
            "avg_bus_util",
            stats.bus_utilisation(now) / f64::from(self.channels()),
        );
        r.scalar("page_hit_rate", stats.page_hit_rate());
        for (i, c) in self.channels.iter().enumerate() {
            r.nest(&c.report(&format!("ch{i}"), now));
        }
        r
    }
}

impl<C: Controller + SnapState> SnapState for MultiChannel<C> {
    /// Delegates to each channel controller in routing order. Mapping and
    /// latency are configuration, and the cached next-event ticks are
    /// derived from the channels — never written, re-read from each
    /// channel as it is restored — so a channel-count header plus the
    /// per-channel states captures everything.
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.channels.len());
        for c in &self.channels {
            c.save_state(w);
        }
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n != self.channels.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {n} channels, crossbar has {}",
                self.channels.len()
            )));
        }
        for ch in 0..self.channels.len() {
            self.with_channel(ch, |c| c.restore_state(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramctrl::{CtrlConfig, DramCtrl};
    use dramctrl_mem::{presets, ReqId};

    fn xbar(n: u32) -> MultiChannel<DramCtrl> {
        let ctrls = (0..n)
            .map(|_| {
                let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
                cfg.spec.timing.t_refi = 0;
                cfg.channels = n;
                DramCtrl::new(cfg).unwrap()
            })
            .collect();
        MultiChannel::new(ctrls, 0).unwrap()
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert!(MultiChannel::<DramCtrl>::new(vec![], 0).is_err());
        let a = DramCtrl::new(CtrlConfig::new(presets::ddr3_1333_x64())).unwrap();
        let b = DramCtrl::new(CtrlConfig::new(presets::lpddr3_1600_x32())).unwrap();
        assert!(MultiChannel::new(vec![a, b], 0).is_err());
    }

    #[test]
    fn burst_interleaving_round_robins_channels() {
        let mut x = xbar(4);
        // 8 sequential lines spread over 4 channels, 2 each.
        for i in 0..8u64 {
            x.try_send(MemRequest::read(ReqId(i), i * 64, 64), 0)
                .unwrap();
        }
        let mut out = Vec::new();
        x.drain(&mut out);
        assert_eq!(out.len(), 8);
        for ch in 0..4 {
            assert_eq!(x.channel(ch).common_stats().rd_bursts, 2, "channel {ch}");
        }
    }

    #[test]
    fn four_channels_give_four_times_bandwidth() {
        let run = |n| {
            let mut x = xbar(n);
            let mut out = Vec::new();
            let mut t = 0;
            for i in 0..512u64 {
                let req = MemRequest::read(ReqId(i), i * 64, 64);
                while x.try_send(req, t).is_err() {
                    t = t.max(x.next_event().unwrap());
                    x.advance_to(t, &mut out);
                }
            }
            x.drain(&mut out)
        };
        let (t1, t4) = (run(1), run(4));
        let speedup = t1 as f64 / t4 as f64;
        assert!(speedup > 3.0, "channel scaling speedup {speedup:.2}");
    }

    #[test]
    fn xbar_latency_added_to_responses() {
        let ctrl = {
            let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
            cfg.spec.timing.t_refi = 0;
            DramCtrl::new(cfg).unwrap()
        };
        let mut x = MultiChannel::new(vec![ctrl], 5_000).unwrap();
        x.try_send(MemRequest::read(ReqId(0), 0, 64), 0).unwrap();
        let mut out = Vec::new();
        x.drain(&mut out);
        // 33 ns DRAM + 5 ns crossbar.
        assert_eq!(out[0].ready_at, 38_000);
    }

    #[test]
    fn responses_sorted_by_ready_time() {
        let mut x = xbar(2);
        for i in 0..32u64 {
            let req = MemRequest::read(ReqId(i), i * 64, 64);
            let mut t = 0;
            let mut out = Vec::new();
            while x.try_send(req, t).is_err() {
                t = t.max(x.next_event().unwrap());
                x.advance_to(t, &mut out);
            }
        }
        let mut out = Vec::new();
        x.drain(&mut out);
        assert!(out.windows(2).all(|w| w[0].ready_at <= w[1].ready_at));
    }

    #[test]
    fn row_buffer_interleaving_granularity() {
        let ctrls = (0..2)
            .map(|_| {
                let mut cfg = CtrlConfig::new(presets::ddr3_1333_x64());
                cfg.spec.timing.t_refi = 0;
                cfg.channels = 2;
                cfg.mapping = AddrMapping::RoRaBaChCo;
                DramCtrl::new(cfg).unwrap()
            })
            .collect();
        let mut x = MultiChannel::new(ctrls, 0)
            .unwrap()
            .with_mapping(AddrMapping::RoRaBaChCo);
        // A whole row buffer (8 KB) goes to channel 0 before switching.
        for i in 0..4u64 {
            x.try_send(MemRequest::read(ReqId(i), i * 4096, 64), 0)
                .unwrap();
        }
        let mut out = Vec::new();
        x.drain(&mut out);
        assert_eq!(x.channel(0).common_stats().rd_bursts, 2);
        assert_eq!(x.channel(1).common_stats().rd_bursts, 2);
    }
}
