//! Primary-input–based level assignment.
//!
//! §3.3 of the paper: each block's *level* is "the maximum distance between
//! the block and any sensor block (analogous to the primary input-based level
//! definition in circuit partitioning)". Levels order the merged syntax trees
//! during code generation and serve as the final PareDown tie-break (§4.2).
//!
//! Sensor blocks have level 0. Blocks with no path from any sensor (possible
//! in partially built designs) also get level 0.

use crate::design::Design;

/// Computes the level of every block, indexed by
/// [`BlockId::index`](crate::BlockId::index); the index of a removed block
/// reads 0.
///
/// Runs in `O(V + E)` over a topological order.
pub fn levels(design: &Design) -> Vec<usize> {
    let bound = design.blocks().map(|b| b.index() + 1).max().unwrap_or(0);
    let mut level = vec![0; bound];
    for b in design.topo_order() {
        let l = level[b.index()];
        for w in design.out_wires(b) {
            let to = &mut level[w.to.index()];
            *to = (*to).max(l + 1);
        }
    }
    level
}

/// The maximum level in the design — the paper's "depth" of a design (§5.1).
pub fn depth(design: &Design) -> usize {
    levels(design).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::{ComputeKind, OutputKind, SensorKind};

    #[test]
    fn chain_levels_increase() {
        let mut d = Design::new("lv");
        let s = d.add_block("s", SensorKind::Button);
        let g1 = d.add_block("g1", ComputeKind::Not);
        let g2 = d.add_block("g2", ComputeKind::Not);
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (g1, 0)).unwrap();
        d.connect((g1, 0), (g2, 0)).unwrap();
        d.connect((g2, 0), (o, 0)).unwrap();
        let lv = levels(&d);
        assert_eq!(lv[s.index()], 0);
        assert_eq!(lv[g1.index()], 1);
        assert_eq!(lv[g2.index()], 2);
        assert_eq!(lv[o.index()], 3);
        assert_eq!(depth(&d), 3);
    }

    #[test]
    fn reconvergence_takes_max() {
        // s -> a -> c and s -> c: c is level 2 via a, not 1.
        let mut d = Design::new("re");
        let s = d.add_block("s", SensorKind::Button);
        let sp = d.add_block("sp", ComputeKind::Splitter);
        let a = d.add_block("a", ComputeKind::Not);
        let c = d.add_block("c", ComputeKind::and2());
        let o = d.add_block("o", OutputKind::Led);
        d.connect((s, 0), (sp, 0)).unwrap();
        d.connect((sp, 0), (a, 0)).unwrap();
        d.connect((sp, 1), (c, 0)).unwrap();
        d.connect((a, 0), (c, 1)).unwrap();
        d.connect((c, 0), (o, 0)).unwrap();
        let lv = levels(&d);
        assert_eq!(lv[sp.index()], 1);
        assert_eq!(lv[a.index()], 2);
        assert_eq!(lv[c.index()], 3, "max distance, not min");
    }

    #[test]
    fn isolated_blocks_level_zero() {
        let mut d = Design::new("iso");
        let s = d.add_block("s", SensorKind::Button);
        let lone = d.add_block("lone", ComputeKind::Toggle);
        let lv = levels(&d);
        assert_eq!(lv[s.index()], 0);
        assert_eq!(lv[lone.index()], 0);
        assert_eq!(depth(&d), 0);
    }

    #[test]
    fn empty_design_depth_zero() {
        assert_eq!(depth(&Design::new("empty")), 0);
    }
}
