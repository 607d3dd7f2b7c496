//! Placement and physical checks: annealing cell placement on a row
//! grid, half-perimeter wirelength (HPWL) wire loads for STA, and the
//! DRC/LVS-style consistency checks the paper's flow runs after P&R.

use stco_cells::liberty::Library;
use stco_numerics::rng::Xorshift;

use crate::mapper::MappedNetlist;
use crate::{Result, SystemError};

/// Placement configuration.
#[derive(Debug, Clone)]
pub struct PlaceConfig {
    /// Annealing moves per instance.
    pub moves_per_instance: usize,
    /// Initial temperature as a fraction of the initial HPWL.
    pub initial_temperature: f64,
    /// Geometric cooling factor per sweep.
    pub cooling: f64,
    /// Wire capacitance per meter of HPWL, F/m.
    pub cap_per_meter: f64,
    /// Site pitch (cell grid spacing), m.
    pub site_pitch: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PlaceConfig {
    fn default() -> Self {
        PlaceConfig {
            moves_per_instance: 20,
            initial_temperature: 0.1,
            cooling: 0.75,
            cap_per_meter: 1.0e-10, // 0.1 fF/µm
            site_pitch: 10.0e-6,
            seed: 1,
        }
    }
}

/// A legal placement.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Grid position per instance `(col, row)`.
    pub positions: Vec<(usize, usize)>,
    /// Grid dimension (cols = rows).
    pub grid: usize,
    /// Final total HPWL, m.
    pub total_hpwl: f64,
    /// Per-net wire capacitance, F.
    pub net_caps: Vec<f64>,
    /// HPWL before optimization (for improvement reporting), m.
    pub initial_hpwl: f64,
}

impl Placement {
    /// Wirelength improvement ratio (initial / final).
    pub fn improvement(&self) -> f64 {
        if self.total_hpwl <= 0.0 {
            1.0
        } else {
            self.initial_hpwl / self.total_hpwl
        }
    }
}

/// Places a mapped netlist by simulated annealing on a √n × √n grid.
///
/// A move is priced from cached net bounding boxes that keep the pin
/// count on each edge, so it shifts only the moved cells' pins instead of
/// rescanning every pin of every affected net. The affected nets' HPWLs
/// are summed in the order such a rescan would use, so the placement is
/// bitwise the one it gives.
///
/// # Errors
///
/// Returns [`SystemError::BadNetlist`] for empty designs.
pub fn place(netlist: &MappedNetlist, config: &PlaceConfig) -> Result<Placement> {
    let _span = stco_obs::span!("system.place", num_instances = netlist.instances.len());
    let n = netlist.instances.len();
    if n == 0 {
        return Err(SystemError::BadNetlist {
            context: "cannot place an empty design".into(),
        });
    }
    let grid = (n as f64).sqrt().ceil() as usize;
    let mut rng = Xorshift::new(config.seed);
    let mut placer = Placer::new(netlist, grid, config.site_pitch);

    let initial_hpwl = placer.total_hpwl();
    // Best-seen snapshot (starts at the initial placement), restored
    // before the final greedy sweep so the result can never be worse
    // than the starting point.
    let mut best_positions = placer.positions.clone();
    let mut best_hpwl = initial_hpwl;
    // Temperature scales with a *single move's* typical cost delta (a few
    // site pitches), not the global HPWL — otherwise every move is
    // accepted and the anneal random-walks.
    let mut temperature = config.initial_temperature * 40.0 * config.site_pitch;
    let sweeps = 16;
    let moves = config.moves_per_instance * n / sweeps.max(1);
    for _sweep in 0..sweeps {
        for _ in 0..moves {
            let a = rng.gen_range(n);
            let target = (rng.gen_range(grid), rng.gen_range(grid));
            // A move onto the cell's own slot has a zero delta, which is
            // accepted without drawing from the RNG.
            let Some(mv) = placer.propose(a, target) else {
                continue;
            };
            let delta = mv.after - mv.before;
            if delta <= 0.0 || rng.chance((-delta / temperature.max(1e-30)).exp()) {
                placer.accept(&mv);
            } else {
                placer.reject(&mv);
            }
        }
        temperature *= config.cooling;
        // End-of-sweep snapshot.
        let sweep_hpwl = placer.total_hpwl();
        if sweep_hpwl < best_hpwl {
            best_hpwl = sweep_hpwl;
            best_positions.copy_from_slice(&placer.positions);
        }
    }
    // Restore the best placement seen, then run a zero-temperature
    // (accept-only-improving) polish sweep.
    placer.reset(&best_positions);
    for _ in 0..moves {
        let a = rng.gen_range(n);
        let target = (rng.gen_range(grid), rng.gen_range(grid));
        let Some(mv) = placer.propose(a, target) else {
            continue;
        };
        if mv.after < mv.before {
            placer.accept(&mv);
        } else {
            placer.reject(&mv);
        }
    }

    let total_hpwl = placer.total_hpwl();
    let net_caps = (0..netlist.num_nets)
        .map(|net| placer.hpwl(net, &placer.boxes[net]) * config.cap_per_meter)
        .collect();
    Ok(Placement {
        positions: placer.positions,
        grid,
        total_hpwl,
        net_caps,
        initial_hpwl,
    })
}

/// One axis of a net's bounding box: its extreme grid coordinates and
/// how many pins sit on each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    lo: usize,
    hi: usize,
    at_lo: usize,
    at_hi: usize,
}

impl Span {
    /// The span after `k` of its pins move from `from` to `to`, or `None`
    /// when they were all of an edge's pins and moved inward: only a
    /// rescan of the net's pins finds that edge's new coordinate.
    fn shifted(mut self, from: usize, to: usize, k: usize) -> Option<Span> {
        if to > from {
            if from == self.lo {
                if self.at_lo == k {
                    return None;
                }
                self.at_lo -= k;
            }
            if to > self.hi {
                self.hi = to;
                self.at_hi = k;
            } else if to == self.hi {
                self.at_hi += k;
            }
        } else if to < from {
            if from == self.hi {
                if self.at_hi == k {
                    return None;
                }
                self.at_hi -= k;
            }
            if to < self.lo {
                self.lo = to;
                self.at_lo = k;
            } else if to == self.lo {
                self.at_lo += k;
            }
        }
        Some(self)
    }
}

/// A net's bounding box with the pin count on each of its four edges
/// (the incremental bounding-box cost of VPR, Betz & Rose 1997): a move
/// updates it in O(1) unless it empties an edge inward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NetBox {
    col: Span,
    row: Span,
}

impl NetBox {
    /// The box of `pins` (instances) at `positions`; a net without pins
    /// gets an empty box (`lo > hi`).
    fn of(pins: &[usize], positions: &[(usize, usize)]) -> NetBox {
        let (mut lo, mut hi) = ((usize::MAX, usize::MAX), (0, 0));
        for &i in pins {
            let (c, r) = positions[i];
            lo = (lo.0.min(c), lo.1.min(r));
            hi = (hi.0.max(c), hi.1.max(r));
        }
        let mut at = [0; 4];
        for &i in pins {
            let (c, r) = positions[i];
            at[0] += usize::from(c == lo.0);
            at[1] += usize::from(c == hi.0);
            at[2] += usize::from(r == lo.1);
            at[3] += usize::from(r == hi.1);
        }
        NetBox {
            col: Span {
                lo: lo.0,
                hi: hi.0,
                at_lo: at[0],
                at_hi: at[1],
            },
            row: Span {
                lo: lo.1,
                hi: hi.1,
                at_lo: at[2],
                at_hi: at[3],
            },
        }
    }

    fn shifted(self, from: (usize, usize), to: (usize, usize), k: usize) -> Option<NetBox> {
        Some(NetBox {
            col: self.col.shifted(from.0, to.0, k)?,
            row: self.row.shifted(from.1, to.1, k)?,
        })
    }
}

/// A priced move of instance `a` to `to`, swapping with `b` if the slot
/// is taken; `before` and `after` are the affected nets' summed HPWLs.
struct Move {
    a: usize,
    b: Option<usize>,
    from: (usize, usize),
    to: (usize, usize),
    before: f64,
    after: f64,
}

/// Rows of variable length stored back to back: row `i` is
/// `items[start[i]..start[i + 1]]`.
struct Rows<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    fn new() -> Self {
        Rows {
            start: vec![0],
            items: Vec::new(),
        }
    }

    fn push(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.start.push(self.items.len());
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i]..self.start[i + 1]]
    }
}

/// Annealing state: positions, the slot map and every net's box.
struct Placer {
    grid: usize,
    site_pitch: f64,
    /// Instance of every pin on each net, one entry per pin, so an
    /// instance reading a net twice appears twice.
    net_pins: Rows<usize>,
    /// Whether a net has two pins or more (only those have an HPWL).
    wired: Vec<bool>,
    /// Each instance's nets in ascending order, with its pin count on each.
    inst_nets: Rows<(usize, usize)>,
    positions: Vec<(usize, usize)>,
    /// `slot[row * grid + col]`: the instance on that site.
    slot: Vec<Option<usize>>,
    boxes: Vec<NetBox>,
    /// The proposed move's affected nets with their shifted boxes, in
    /// pricing order.
    pending: Vec<(usize, NetBox)>,
}

impl Placer {
    /// Row-major initial placement of `netlist` on a `grid` × `grid` array.
    fn new(netlist: &MappedNetlist, grid: usize, site_pitch: f64) -> Placer {
        let n = netlist.instances.len();
        let mut pins_by_net = vec![Vec::new(); netlist.num_nets];
        let mut inst_nets = Rows::new();
        let mut nets = Vec::new();
        for (ii, inst) in netlist.instances.iter().enumerate() {
            nets.clear();
            nets.push(inst.output);
            nets.extend_from_slice(&inst.inputs);
            for &net in &nets {
                pins_by_net[net].push(ii);
            }
            nets.sort_unstable();
            inst_nets.push(nets.chunk_by(|x, y| x == y).map(|run| (run[0], run.len())));
        }
        let mut net_pins = Rows::new();
        for pins in pins_by_net {
            net_pins.push(pins);
        }
        let mut placer = Placer {
            grid,
            site_pitch,
            wired: (0..netlist.num_nets)
                .map(|net| net_pins.row(net).len() >= 2)
                .collect(),
            net_pins,
            inst_nets,
            positions: Vec::new(),
            slot: vec![None; grid * grid],
            boxes: Vec::new(),
            pending: Vec::new(),
        };
        let row_major: Vec<(usize, usize)> = (0..n).map(|i| (i % grid, i / grid)).collect();
        placer.reset(&row_major);
        placer
    }

    /// Moves every instance to `positions` and rebuilds the slot map and
    /// the boxes.
    fn reset(&mut self, positions: &[(usize, usize)]) {
        self.positions.clear();
        self.positions.extend_from_slice(positions);
        self.slot.fill(None);
        for (i, &(c, r)) in positions.iter().enumerate() {
            self.slot[r * self.grid + c] = Some(i);
        }
        self.boxes.clear();
        for net in 0..self.wired.len() {
            self.boxes
                .push(NetBox::of(self.net_pins.row(net), positions));
        }
    }

    /// HPWL of `net` if its box were `bbox`, m.
    fn hpwl(&self, net: usize, bbox: &NetBox) -> f64 {
        if !self.wired[net] {
            return 0.0;
        }
        ((bbox.col.hi - bbox.col.lo) + (bbox.row.hi - bbox.row.lo)) as f64 * self.site_pitch
    }

    /// Total HPWL, summed in net order, m.
    fn total_hpwl(&self) -> f64 {
        self.boxes
            .iter()
            .enumerate()
            .map(|(net, bbox)| self.hpwl(net, bbox))
            .sum()
    }

    /// Tentatively moves `a` to `to`, swapping with the instance there,
    /// and prices the move; `None` if `to` is `a`'s own slot.
    fn propose(&mut self, a: usize, to: (usize, usize)) -> Option<Move> {
        let b = self.slot[to.1 * self.grid + to.0];
        if b == Some(a) {
            return None;
        }
        let from = self.positions[a];
        self.positions[a] = to;
        if let Some(bi) = b {
            self.positions[bi] = from;
        }
        // `a`'s nets, then `b`'s other nets: the order a full recompute
        // sums them in, so both costs round exactly as it would.
        let a_nets = self.inst_nets.row(a);
        let b_nets = b.map_or(&[][..], |bi| self.inst_nets.row(bi));
        let mut pending = std::mem::take(&mut self.pending);
        pending.clear();
        for &(net, ka) in a_nets {
            pending.push((net, self.moved_box(net, from, to, ka, pins_on(b_nets, net))));
        }
        for &(net, kb) in b_nets {
            if pins_on(a_nets, net) == 0 {
                pending.push((net, self.moved_box(net, from, to, 0, kb)));
            }
        }
        let before = pending
            .iter()
            .map(|&(net, _)| self.hpwl(net, &self.boxes[net]))
            .sum();
        let after = pending
            .iter()
            .map(|(net, bbox)| self.hpwl(*net, bbox))
            .sum();
        self.pending = pending;
        Some(Move {
            a,
            b,
            from,
            to,
            before,
            after,
        })
    }

    /// `net`'s box once `ka` of its pins have moved `from` → `to` and `kb`
    /// have moved back (positions already moved).
    fn moved_box(
        &self,
        net: usize,
        from: (usize, usize),
        to: (usize, usize),
        ka: usize,
        kb: usize,
    ) -> NetBox {
        let bbox = self.boxes[net];
        let shifted = match ka.cmp(&kb) {
            std::cmp::Ordering::Equal => Some(bbox),
            std::cmp::Ordering::Greater => bbox.shifted(from, to, ka - kb),
            std::cmp::Ordering::Less => bbox.shifted(to, from, kb - ka),
        };
        shifted.unwrap_or_else(|| NetBox::of(self.net_pins.row(net), &self.positions))
    }

    /// Keeps the last proposed move.
    fn accept(&mut self, mv: &Move) {
        for &(net, bbox) in &self.pending {
            self.boxes[net] = bbox;
        }
        self.slot[mv.from.1 * self.grid + mv.from.0] = mv.b;
        self.slot[mv.to.1 * self.grid + mv.to.0] = Some(mv.a);
    }

    /// Undoes the last proposed move.
    fn reject(&mut self, mv: &Move) {
        self.positions[mv.a] = mv.from;
        if let Some(bi) = mv.b {
            self.positions[bi] = mv.to;
        }
    }
}

/// Pins an instance has on `net`, from its ascending `(net, pins)` list.
fn pins_on(nets: &[(usize, usize)], net: usize) -> usize {
    nets.iter().find(|&&(n, _)| n == net).map_or(0, |&(_, k)| k)
}

/// DRC-style check: every instance sits on a unique site inside the grid.
///
/// # Errors
///
/// Returns [`SystemError::BadNetlist`] describing the first violation.
pub fn check_drc(placement: &Placement) -> Result<()> {
    let mut used = vec![false; placement.grid * placement.grid];
    for (i, &(c, r)) in placement.positions.iter().enumerate() {
        if c >= placement.grid || r >= placement.grid {
            return Err(SystemError::BadNetlist {
                context: format!("instance {i} placed off-grid at ({c},{r})"),
            });
        }
        let s = r * placement.grid + c;
        if used[s] {
            return Err(SystemError::BadNetlist {
                context: format!("overlap at site ({c},{r})"),
            });
        }
        used[s] = true;
    }
    Ok(())
}

/// LVS-style check: the placed instance list matches the netlist (one
/// position per instance; every cell kind present in the library).
///
/// # Errors
///
/// Returns [`SystemError::BadNetlist`] or [`SystemError::MissingCell`].
pub fn check_lvs(netlist: &MappedNetlist, placement: &Placement, library: &Library) -> Result<()> {
    if placement.positions.len() != netlist.instances.len() {
        return Err(SystemError::BadNetlist {
            context: format!(
                "{} placed vs {} netlist instances",
                placement.positions.len(),
                netlist.instances.len()
            ),
        });
    }
    for inst in &netlist.instances {
        if library.cell(inst.kind).is_none() {
            return Err(SystemError::MissingCell {
                cell: format!("{:?}", inst.kind),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_gen::Benchmark;
    use crate::mapper::map_netlist;

    fn small_mapped() -> MappedNetlist {
        map_netlist(&Benchmark::S298.generate()).unwrap()
    }

    #[test]
    fn placement_is_legal_and_improves_wirelength() {
        let mapped = small_mapped();
        let p = place(&mapped, &PlaceConfig::default()).unwrap();
        check_drc(&p).unwrap();
        assert_eq!(p.positions.len(), mapped.instances.len());
        assert!(
            p.improvement() > 1.05,
            "annealing should improve HPWL ({:.3})",
            p.improvement()
        );
    }

    #[test]
    fn placement_is_deterministic() {
        let mapped = small_mapped();
        let a = place(&mapped, &PlaceConfig::default()).unwrap();
        let b = place(&mapped, &PlaceConfig::default()).unwrap();
        assert_eq!(a.positions, b.positions);
        assert_eq!(a.total_hpwl, b.total_hpwl);
    }

    #[test]
    fn net_caps_scale_with_cap_per_meter() {
        let mapped = small_mapped();
        let mut cfg = PlaceConfig::default();
        let p1 = place(&mapped, &cfg).unwrap();
        cfg.cap_per_meter *= 2.0;
        let p2 = place(&mapped, &cfg).unwrap();
        let s1: f64 = p1.net_caps.iter().sum();
        let s2: f64 = p2.net_caps.iter().sum();
        assert!((s2 / s1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_design_is_rejected() {
        let empty = MappedNetlist::default();
        assert!(place(&empty, &PlaceConfig::default()).is_err());
    }

    #[test]
    fn drc_catches_overlap() {
        let mapped = small_mapped();
        let mut p = place(&mapped, &PlaceConfig::default()).unwrap();
        p.positions[1] = p.positions[0];
        assert!(check_drc(&p).is_err());
    }
}
