//! Live incremental analysis: the whole pipeline as per-probe state
//! machines over an append-only record stream.
//!
//! [`IncrementalAnalyzer`] is the resident-daemon form of the batch
//! pipeline: it holds one [`ProbeMachine`], [`RebootDetector`],
//! [`NetworkOutageDetector`], and [`KrootBracketer`] per probe, consumes
//! records one at a time in arrival order, maintains rolling Table 2
//! counts and ingest statistics, and can [`seal`](IncrementalAnalyzer::seal)
//! at any point into a full [`AnalysisReport`].
//!
//! **Replay equivalence** is the module's contract: replaying a complete
//! dataset through the analyzer (all meta rows, then every record in
//! arrival order — see [`replay_plan`]) and sealing produces a report
//! byte-for-byte identical to [`crate::pipeline::analyze`] over the same
//! dataset. The seal path reuses the batch pipeline's own
//! `finish_analysis`, firmware filter, and association code, so the only
//! logic that could diverge is the per-record state machines — and those
//! are the very machines the batch entry points drive, pinned further by
//! the workspace determinism tests and the ci.sh daemon gate.

use crate::assoc::{associate_network, associate_power, AssociatedOutage};
use crate::filtering::{AnalyzableProbe, FilterCounts, FilterReport, ProbeClass, ProbeMachine};
use crate::firmware::{reboot_series, strip_firmware_reboots};
use crate::outages::{
    classify_bracket, DarkBracket, KrootBracketer, NetworkOutage, NetworkOutageDetector,
    PowerOutage, Reboot, RebootDetector,
};
use crate::pipeline::{AnalysisConfig, AnalysisReport, FirmwarePanel, OutageAnalysis};
use dynaddr_atlas::logs::{
    AtlasDataset, ConnectionLogEntry, KrootPingRecord, ProbeMeta, SosUptimeRecord,
};
use dynaddr_exec::{par_map, par_map_flat};
use dynaddr_ip2as::MonthlySnapshots;
use dynaddr_types::SimTime;
use std::collections::BTreeMap;

/// Rolling ingest counters — cheap integers a daemon can report without
/// touching per-probe state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Probe-meta rows accepted.
    pub meta_rows: u64,
    /// Connection-log rows accepted.
    pub connection_rows: u64,
    /// K-root ping rows accepted.
    pub kroot_rows: u64,
    /// SOS-uptime rows accepted.
    pub uptime_rows: u64,
    /// Rows dropped because no meta row introduced their probe.
    pub unknown_probe_rows: u64,
    /// Address changes emitted so far.
    pub changes: u64,
    /// Inter-connection gaps emitted so far.
    pub gaps: u64,
    /// Completed network outages so far (an open loss run is not counted).
    pub network_outages: u64,
    /// Reboots detected so far.
    pub reboots: u64,
    /// Largest record arrival time seen (seconds; 0 before any record).
    pub frontier_secs: i64,
}

impl IngestStats {
    /// Stream rows seen: every row after the meta table, including those
    /// dropped for an unknown probe.
    pub fn rows(&self) -> u64 {
        self.connection_rows + self.kroot_rows + self.uptime_rows + self.unknown_probe_rows
    }
}

/// A point-in-time view of one probe's rolling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeView {
    /// The funnel verdict over the entries seen so far.
    pub class: ProbeClass,
    /// Whether any change so far crossed autonomous systems.
    pub multi_as: bool,
    /// Retained (stripped, IPv4) connection entries.
    pub entries: usize,
    /// Address changes emitted so far.
    pub changes: usize,
    /// Inter-connection gaps emitted so far.
    pub gaps: usize,
    /// Completed network outages so far.
    pub network_outages: usize,
    /// Reboots detected so far.
    pub reboots: usize,
    /// Whether a leading testing-address entry was stripped.
    pub had_testing: bool,
}

/// Per-probe machine bundle.
#[derive(Debug, Clone)]
struct ProbeState {
    /// The probe's rolling view, brought up to date by every row from the
    /// machine state that row already touched. `(view.class,
    /// view.multi_as)` is the funnel bucket the probe occupies in the
    /// rolling counts; `view.reboots` is the only reboot tally.
    view: ProbeView,
    /// Whether the probe's slot is on the dirty list awaiting a drain.
    dirty: bool,
    machine: ProbeMachine,
    reboots: RebootDetector,
    netout: NetworkOutageDetector,
    bracketer: KrootBracketer,
}

impl ProbeState {
    /// Replaces the view; if it changed, puts `slot` on the dirty list
    /// unless it is there already.
    fn set_view(&mut self, view: ProbeView, slot: usize, dirty: &mut Vec<usize>) {
        if view != self.view {
            self.view = view;
            if !self.dirty {
                self.dirty = true;
                dirty.push(slot);
            }
        }
    }
}

/// The view of a probe whose filtering machine is `m`, given the outage
/// and reboot tallies kept beside it.
fn view_of(m: &ProbeMachine, network_outages: usize, reboots: usize) -> ProbeView {
    ProbeView {
        class: m.class(),
        multi_as: m.multi_as(),
        entries: m.entries_len(),
        changes: m.changes_len(),
        gaps: m.gaps_len(),
        network_outages,
        reboots,
        had_testing: m.had_testing(),
    }
}

/// The live pipeline: per-probe state machines + rolling aggregates.
///
/// Feed [`push_meta`](Self::push_meta) first for every probe, then records
/// in arrival order via [`push_connection`](Self::push_connection) /
/// [`push_kroot`](Self::push_kroot) / [`push_uptime`](Self::push_uptime)
/// (or [`apply`](Self::apply) over a [`replay_plan`]). Query rolling state
/// any time; [`seal`](Self::seal) renders the full report without
/// disturbing the live state.
///
/// Each probe lives in a dense slot, assigned by `push_meta` in
/// introduction order. A row brings its probe's [`ProbeView`] up to date
/// from the machine state it already touched and, if the view changed,
/// marks the slot dirty (a flag test). [`drain_dirty`](Self::drain_dirty)
/// hands a reader the views of the marked probes, so keeping a published
/// copy of the per-probe state costs O(views changed) per publish, not
/// O(rows) or O(probes). Most k-root and uptime rows change no view.
pub struct IncrementalAnalyzer {
    snapshots: MonthlySnapshots,
    /// Probe id → slot in `probes`.
    slots: BTreeMap<u32, usize>,
    /// Per-probe state, indexed by slot.
    probes: Vec<ProbeState>,
    /// Slots whose view changed since the last drain, each at most once,
    /// so the list never outgrows the probe table even if nobody drains
    /// it.
    dirty: Vec<usize>,
    counts: FilterCounts,
    stats: IngestStats,
}

/// Adds (or removes) one probe from its funnel bucket and rebalances the
/// derived AS-level count, mirroring `FilterCounts::record` plus the
/// cross-probe derivation in `StreamingFilter::finish`.
fn tally(c: &mut FilterCounts, class: ProbeClass, multi_as: bool, add: bool) {
    let bump = |slot: &mut usize| {
        if add {
            *slot += 1;
        } else {
            *slot -= 1;
        }
    };
    match class {
        ProbeClass::Ipv6Only => bump(&mut c.ipv6_only),
        ProbeClass::DualStack => bump(&mut c.dual_stack),
        ProbeClass::Tagged => bump(&mut c.tagged),
        ProbeClass::Multihomed => bump(&mut c.multihomed),
        ProbeClass::TestingOnly => bump(&mut c.testing_only),
        ProbeClass::NeverChanged => bump(&mut c.never_changed),
        ProbeClass::Analyzable => {
            bump(&mut c.analyzable_geo);
            if multi_as {
                bump(&mut c.multi_as);
            }
        }
    }
    c.analyzable_as = c.analyzable_geo - c.multi_as;
}

impl IncrementalAnalyzer {
    /// An empty analyzer over the given IP-to-AS snapshots.
    pub fn new(snapshots: MonthlySnapshots) -> IncrementalAnalyzer {
        IncrementalAnalyzer {
            snapshots,
            slots: BTreeMap::new(),
            probes: Vec::new(),
            dirty: Vec::new(),
            counts: FilterCounts::default(),
            stats: IngestStats::default(),
        }
    }

    /// Introduces a probe. Records for probes without a meta row are
    /// dropped (and counted), matching the batch pipeline, which iterates
    /// the meta table.
    pub fn push_meta(&mut self, meta: &ProbeMeta) {
        let id = meta.probe.0;
        if self.slots.contains_key(&id) {
            return;
        }
        let machine = ProbeMachine::new(meta.clone());
        let view = view_of(&machine, 0, 0);
        tally(&mut self.counts, view.class, view.multi_as, true);
        self.counts.total += 1;
        let slot = self.probes.len();
        self.slots.insert(id, slot);
        self.probes.push(ProbeState {
            view,
            dirty: true,
            machine,
            reboots: RebootDetector::new(),
            netout: NetworkOutageDetector::new(),
            bracketer: KrootBracketer::new(),
        });
        self.dirty.push(slot);
        self.stats.meta_rows += 1;
    }

    /// The slot of probe `id`; `None` (and the row counted as unknown) if
    /// no meta row introduced it.
    fn slot_of(&mut self, id: u32) -> Option<usize> {
        let slot = self.slots.get(&id).copied();
        if slot.is_none() {
            self.stats.unknown_probe_rows += 1;
        }
        slot
    }

    fn frontier(&mut self, t: SimTime) {
        self.stats.frontier_secs = self.stats.frontier_secs.max(t.0);
    }

    /// Feeds one connection-log entry (per-probe start-time order).
    pub fn push_connection(&mut self, e: &ConnectionLogEntry) {
        let Some(slot) = self.slot_of(e.probe.0) else { return };
        let st = &mut self.probes[slot];
        st.machine.push(e, &self.snapshots);
        let was = st.view;
        let now = view_of(&st.machine, was.network_outages, was.reboots);
        if (now.class, now.multi_as) != (was.class, was.multi_as) {
            tally(&mut self.counts, was.class, was.multi_as, false);
            tally(&mut self.counts, now.class, now.multi_as, true);
        }
        // Counts reset to zero when a probe settles out of the analyzable
        // funnel (heavy state dropped); only forward motion is tallied.
        self.stats.changes += now.changes.saturating_sub(was.changes) as u64;
        self.stats.gaps += now.gaps.saturating_sub(was.gaps) as u64;
        st.set_view(now, slot, &mut self.dirty);
        self.stats.connection_rows += 1;
        self.frontier(e.start);
    }

    /// Feeds one k-root ping record (per-probe time order).
    pub fn push_kroot(&mut self, r: &KrootPingRecord) {
        let Some(slot) = self.slot_of(r.probe.0) else { return };
        let st = &mut self.probes[slot];
        st.netout.push(r);
        st.bracketer.push_kroot(r.timestamp);
        let network_outages = st.netout.outages().len();
        if network_outages != st.view.network_outages {
            self.stats.network_outages += (network_outages - st.view.network_outages) as u64;
            st.set_view(ProbeView { network_outages, ..st.view }, slot, &mut self.dirty);
        }
        self.stats.kroot_rows += 1;
        self.frontier(r.timestamp);
    }

    /// Feeds one SOS-uptime record (per-probe time order).
    pub fn push_uptime(&mut self, r: &SosUptimeRecord) {
        let Some(slot) = self.slot_of(r.probe.0) else { return };
        let st = &mut self.probes[slot];
        if let Some(reboot) = st.reboots.push(r) {
            st.bracketer.push_reboot(reboot);
            let reboots = st.view.reboots + 1;
            st.set_view(ProbeView { reboots, ..st.view }, slot, &mut self.dirty);
            self.stats.reboots += 1;
        }
        // Safe prune bound: every future reboot of this probe boots after
        // this record's timestamp (the reboot rule requires it).
        st.bracketer.prune(r.timestamp);
        self.stats.uptime_rows += 1;
        self.frontier(r.timestamp);
    }

    /// Applies one replay step against its source dataset.
    pub fn apply(&mut self, ds: &AtlasDataset, row: ReplayRow) {
        match row {
            ReplayRow::Connection(i) => self.push_connection(&ds.connections[i]),
            ReplayRow::Kroot(i) => self.push_kroot(&ds.kroot[i]),
            ReplayRow::Uptime(i) => self.push_uptime(&ds.uptime[i]),
        }
    }

    /// Replays a whole dataset: all meta rows, then every record in arrival
    /// order. After this, [`seal`](Self::seal) matches the batch report.
    pub fn replay(&mut self, ds: &AtlasDataset) {
        for meta in &ds.meta {
            self.push_meta(meta);
        }
        for step in replay_plan(ds) {
            self.apply(ds, step.row);
        }
    }

    /// The rolling Table 2 funnel counts (provisional classes over the
    /// records seen so far; identical to the sealed counts once the stream
    /// is complete).
    pub fn rolling_counts(&self) -> &FilterCounts {
        &self.counts
    }

    /// The rolling ingest counters.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Number of probes introduced so far.
    pub fn probes_tracked(&self) -> usize {
        self.probes.len()
    }

    /// A point-in-time view of one probe, if introduced.
    pub fn probe_view(&self, id: u32) -> Option<ProbeView> {
        Some(self.probes[*self.slots.get(&id)?].view)
    }

    /// Hands `f` the current view of every probe introduced, or whose view
    /// changed, since the last drain, as `(id, slot, view)`, and clears
    /// the marks.
    ///
    /// Each probe comes at most once per drain. Slots are dense and
    /// assigned in introduction order, and a probe is marked as it is
    /// introduced, so a slot first shows up only after every lower one
    /// has: a reader's copy of the slot table grows by appending.
    pub fn drain_dirty(&mut self, mut f: impl FnMut(u32, usize, ProbeView)) {
        for slot in self.dirty.drain(..) {
            let st = &mut self.probes[slot];
            st.dirty = false;
            f(st.machine.meta().probe.0, slot, st.view);
        }
    }

    /// Seals a snapshot of the live state into the full report. The live
    /// state is untouched (machines are cloned to run their `finish`), so a
    /// daemon can keep ingesting afterwards. After a complete replay this
    /// is byte-identical to [`crate::pipeline::analyze`].
    pub fn seal(&self, cfg: &AnalysisConfig) -> AnalysisReport {
        let _sp = dynaddr_obs::span("live_seal");
        // ----- Filtering funnel (Table 2) --------------------------------
        let states: Vec<(u32, &ProbeState)> =
            self.slots.iter().map(|(id, slot)| (*id, &self.probes[*slot])).collect();
        let finished: Vec<(u32, ProbeClass, Option<AnalyzableProbe>)> =
            par_map(&states, |(id, st)| {
                let (class, probe) = st.machine.clone().finish();
                (*id, class, probe)
            });
        let mut counts = FilterCounts { total: states.len(), ..FilterCounts::default() };
        let mut classes = BTreeMap::new();
        let mut probes = Vec::new();
        for (id, class, probe) in finished {
            tally(&mut counts, class, probe.as_ref().is_some_and(|p| p.multi_as), true);
            classes.insert(id, class);
            probes.extend(probe);
        }
        let report = FilterReport { counts, classes, probes };

        // ----- Outage side -----------------------------------------------
        // Per analyzable probe (ascending id, the batch fan-out order):
        // resolved reboot brackets and completed network outages.
        let per_probe: Vec<(Vec<(Reboot, DarkBracket)>, Vec<NetworkOutage>)> =
            par_map(&report.probes, |p| {
                let st = &self.probes[self.slots[&p.probe().0]];
                (st.bracketer.clone().finish(), st.netout.clone().finish())
            });
        // The global reboot population feeds the firmware series, exactly
        // as the batch concatenation over analyzable probes does.
        let mut all_reboots: Vec<Reboot> = Vec::new();
        for (pairs, _) in &per_probe {
            all_reboots.extend(pairs.iter().map(|(r, _)| *r));
        }
        let series = reboot_series(&all_reboots);
        let firmware = FirmwarePanel {
            daily: series.daily_unique_probes.clone(),
            median: series.median,
            update_days: series.update_days.clone(),
        };
        let cleaned = strip_firmware_reboots(&all_reboots, &series.update_days);
        drop(all_reboots);
        let mut by_probe: BTreeMap<u32, Vec<Reboot>> = BTreeMap::new();
        for r in &cleaned {
            by_probe.entry(r.probe.0).or_default().push(*r);
        }

        let zipped: Vec<(&AnalyzableProbe, &(Vec<(Reboot, DarkBracket)>, Vec<NetworkOutage>))> =
            report.probes.iter().zip(per_probe.iter()).collect();
        let outages: Vec<AssociatedOutage> = par_map_flat(&zipped, |(p, (pairs, network))| {
            let mut found = associate_network(&p.events.gaps, network);
            // Power analysis only on hardware with reliable uptime counters.
            if p.meta.version.reliable_uptime() {
                let reboots =
                    by_probe.get(&p.probe().0).map(|v| v.as_slice()).unwrap_or(&[]);
                let power = power_from_brackets(reboots, pairs, network);
                found.extend(associate_power(&p.events.gaps, &power));
            }
            found
        });
        let oa = OutageAnalysis { outages, reboots: cleaned, firmware };
        crate::pipeline::finish_analysis(report, oa, &self.snapshots, cfg)
    }
}

/// The power-outage verdicts for a firmware-cleaned reboot subsequence,
/// from the probe's resolved brackets. Equivalent to the batch
/// `detect_power_outages(cleaned, kroot, network)`: `pairs` holds every
/// detected reboot of the probe in order with its batch-identical bracket,
/// and `cleaned` is a subsequence of those reboots.
fn power_from_brackets(
    cleaned: &[Reboot],
    pairs: &[(Reboot, DarkBracket)],
    network: &[NetworkOutage],
) -> Vec<PowerOutage> {
    let mut out = Vec::new();
    let mut j = 0usize;
    for r in cleaned {
        while j < pairs.len() && pairs[j].0 != *r {
            j += 1;
        }
        let Some((_, bracket)) = pairs.get(j) else {
            debug_assert!(false, "cleaned reboot missing from bracket list");
            break;
        };
        if let Some(p) = classify_bracket(r, *bracket, network) {
            out.push(p);
        }
        j += 1;
    }
    out
}

/// One row of a replay plan: an index into its dataset table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayRow {
    /// `dataset.connections[i]`.
    Connection(usize),
    /// `dataset.kroot[i]`.
    Kroot(usize),
    /// `dataset.uptime[i]`.
    Uptime(usize),
}

/// One replay step: a record reference and its arrival time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStep {
    /// Arrival time (connection entries arrive at their start; pings and
    /// uptime reports at their timestamp).
    pub time: SimTime,
    /// The record.
    pub row: ReplayRow,
}

/// Builds the arrival-order replay plan for a normalized dataset: every
/// record of the three log tables, stably sorted by arrival time.
///
/// Stability is what makes replay equivalent to batch: the tables are
/// sorted by `(probe, time)`, so for ties in arrival time each probe's
/// records keep their per-table order — the only order the per-probe
/// machines are sensitive to. Cross-probe and cross-table interleaving is
/// free: machines are per-probe, and the k-root/uptime interplay in the
/// bracketer is tie-insensitive (a k-root round at the exact boot instant
/// brackets identically whichever side of the reboot it lands).
pub fn replay_plan(ds: &AtlasDataset) -> Vec<ReplayStep> {
    let mut plan =
        Vec::with_capacity(ds.connections.len() + ds.kroot.len() + ds.uptime.len());
    for (i, e) in ds.connections.iter().enumerate() {
        plan.push(ReplayStep { time: e.start, row: ReplayRow::Connection(i) });
    }
    for (i, r) in ds.kroot.iter().enumerate() {
        plan.push(ReplayStep { time: r.timestamp, row: ReplayRow::Kroot(i) });
    }
    for (i, r) in ds.uptime.iter().enumerate() {
        plan.push(ReplayStep { time: r.timestamp, row: ReplayRow::Uptime(i) });
    }
    plan.sort_by_key(|s| s.time); // stable
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::analyze;
    use crate::report::render_full;
    use dynaddr_atlas::world::{paper_route_tables, paper_world};

    /// The keystone property on a small world: full replay + seal renders
    /// byte-identically to the batch pipeline, and the rolling Table 2
    /// counts converge to the sealed ones.
    #[test]
    fn replay_seal_matches_batch_analyze() {
        let world = paper_world(0.02, 11);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let mut cfg = AnalysisConfig { fig3_min_years: 0.03, ..AnalysisConfig::default() };
        for (asn, policy) in &out.truth.isp_policies {
            cfg.as_names.insert(*asn, policy.name.clone());
        }
        let batch = analyze(&out.dataset, &snaps, &cfg);

        let mut live = IncrementalAnalyzer::new(snaps);
        live.replay(&out.dataset);
        let sealed = live.seal(&cfg);

        assert_eq!(
            render_full(&sealed, &cfg.as_names),
            render_full(&batch, &cfg.as_names),
            "replayed seal must render byte-identically to batch analyze"
        );
        assert_eq!(*live.rolling_counts(), batch.filter, "rolling counts converge");
        let st = live.stats();
        assert_eq!(st.meta_rows as usize, out.dataset.meta.len());
        assert_eq!(st.connection_rows as usize, out.dataset.connections.len());
        assert_eq!(st.kroot_rows as usize, out.dataset.kroot.len());
        assert_eq!(st.uptime_rows as usize, out.dataset.uptime.len());
        assert_eq!(st.unknown_probe_rows, 0);
    }

    /// Sealing mid-stream must not disturb the live state: a seal after
    /// every prefix of the stream, then a final seal, still matches batch.
    #[test]
    fn mid_stream_seal_is_non_destructive() {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let snaps = paper_route_tables(&world);
        let cfg = AnalysisConfig { fig3_min_years: 0.01, ..AnalysisConfig::default() };
        let batch = analyze(&out.dataset, &snaps, &cfg);

        let mut live = IncrementalAnalyzer::new(snaps);
        for meta in &out.dataset.meta {
            live.push_meta(meta);
        }
        let plan = replay_plan(&out.dataset);
        for (i, step) in plan.iter().enumerate() {
            if i == plan.len() / 3 || i == 2 * plan.len() / 3 {
                let _ = live.seal(&cfg); // must not perturb anything
            }
            live.apply(&out.dataset, step.row);
        }
        let sealed = live.seal(&cfg);
        assert_eq!(
            render_full(&sealed, &cfg.as_names),
            render_full(&batch, &cfg.as_names)
        );
    }

    /// The dirty list holds each probe at most once, so an analyzer that
    /// is never drained stays O(probes); a drain reports exactly the
    /// probes introduced or changed since the last one, with
    /// `probe_view`'s views.
    #[test]
    fn drain_reports_each_changed_probe_once() {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let ds = &out.dataset;
        let mut live = IncrementalAnalyzer::new(paper_route_tables(&world));
        live.replay(ds);
        assert_eq!(live.dirty.len(), live.probes_tracked(), "undrained list is O(probes)");
        assert_eq!(live.stats().rows(), replay_plan(ds).len() as u64);

        let mut drained = Vec::new();
        live.drain_dirty(|id, slot, view| drained.push((id, slot, view)));
        assert_eq!(drained.len(), ds.meta.len());
        for (i, (id, slot, view)) in drained.iter().enumerate() {
            assert_eq!(*slot, i, "first drain lists every slot in order");
            assert_eq!(live.probe_view(*id), Some(*view));
        }
        live.drain_dirty(|_, _, _| panic!("nothing changed since the last drain"));

        // A repeated meta row changes no view; a new probe, and then its
        // first IPv4 connection, each change one.
        live.push_meta(&ds.meta[0]);
        live.drain_dirty(|_, _, _| panic!("a repeated meta row changes no view"));
        let id = u32::MAX;
        live.push_meta(&ProbeMeta { probe: dynaddr_types::ProbeId(id), ..ds.meta[0].clone() });
        let mut drained = Vec::new();
        live.drain_dirty(|id, slot, view| drained.push((id, slot, view)));
        assert_eq!(drained, vec![(id, ds.meta.len(), live.probe_view(id).unwrap())]);
        live.push_connection(&ConnectionLogEntry {
            probe: dynaddr_types::ProbeId(id),
            start: SimTime(0),
            end: SimTime(60),
            peer: dynaddr_atlas::logs::PeerAddr::V4("10.0.0.1".parse().unwrap()),
        });
        let mut drained = Vec::new();
        live.drain_dirty(|id, _, view| drained.push((id, view)));
        assert_eq!(drained, vec![(id, live.probe_view(id).unwrap())]);
        assert_ne!(drained[0].1.class, ProbeClass::Ipv6Only);
    }

    /// The view each row keeps current equals one computed afresh from
    /// the probe's machines, after every row of a replay.
    #[test]
    fn rolling_views_track_the_machines() {
        let world = paper_world(0.01, 3);
        let out = dynaddr_atlas::simulate(&world);
        let ds = &out.dataset;
        let mut live = IncrementalAnalyzer::new(paper_route_tables(&world));
        for meta in &ds.meta {
            live.push_meta(meta);
        }
        for step in replay_plan(ds) {
            live.apply(ds, step.row);
            let id = match step.row {
                ReplayRow::Connection(i) => ds.connections[i].probe.0,
                ReplayRow::Kroot(i) => ds.kroot[i].probe.0,
                ReplayRow::Uptime(i) => ds.uptime[i].probe.0,
            };
            let st = &live.probes[live.slots[&id]];
            let fresh = view_of(&st.machine, st.netout.outages().len(), st.view.reboots);
            assert_eq!(st.view, fresh, "probe {id}");
        }
        let reboots: usize = live.probes.iter().map(|st| st.view.reboots).sum();
        assert_eq!(reboots as u64, live.stats().reboots);
    }

    #[test]
    fn rows_before_meta_are_dropped_and_counted() {
        let snaps = MonthlySnapshots::uniform(dynaddr_ip2as::RouteTable::new());
        let mut live = IncrementalAnalyzer::new(snaps);
        live.push_connection(&ConnectionLogEntry {
            probe: dynaddr_types::ProbeId(7),
            start: SimTime(0),
            end: SimTime(60),
            peer: dynaddr_atlas::logs::PeerAddr::V4("10.0.0.1".parse().unwrap()),
        });
        assert_eq!(live.stats().unknown_probe_rows, 1);
        assert_eq!(live.probes_tracked(), 0);
        assert!(live.probe_view(7).is_none());
    }
}
