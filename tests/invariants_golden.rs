//! Golden text of derived invariants: every invariant `derive_invariants`
//! returns for three fixed systems, rendered by `format_invariant`, must
//! read exactly as recorded.  The exact-arithmetic fast paths, the sorted
//! row representation and the registry's dense tables all sit under this
//! output, so a slip in any of them that changes a pivot, a row or the
//! order of the invariants fails here.
//!
//! The systems: the AbstractMi 2×2 mesh with the directory at terminal 3,
//! the MESI ring of four with the directory at terminal 1, and the first
//! tile of each structural class of the per-node cut of the 8×8 mesh
//! (directory at terminal 9) that `compose-8x8` benchmarks.

use advocat::prelude::*;

/// Appends one system's invariants under a `== label (n invariants)`
/// header.
fn render(label: &str, system: &System, out: &mut String) {
    let colors = derive_colors(system);
    let set = derive_invariants(system, &colors);
    out.push_str(&format!("== {label} ({} invariants)\n", set.len()));
    for invariant in set.iter() {
        out.push_str(&format_invariant(system, invariant));
        out.push('\n');
    }
}

#[test]
fn derived_invariants_read_as_recorded() {
    let mut out = String::new();
    let mesh = FabricConfig::new(Topology::mesh(2, 2).unwrap(), 2).with_directory(3);
    render("mesh2x2 dir3", &build_fabric(&mesh).unwrap(), &mut out);
    let ring = FabricConfig::new(Topology::ring(4).unwrap(), 2)
        .with_protocol(ProtocolKind::Mesi)
        .with_directory(1);
    render("mesi ring4 dir1", &build_fabric(&ring).unwrap(), &mut out);
    let config = FabricConfig::new(Topology::mesh(8, 8).unwrap(), 2).with_directory(9);
    let partition = Partition::per_node(&config.topology);
    let mut seen = Vec::new();
    for (tile, digest) in partition
        .tile_class_digests(&config)
        .into_iter()
        .enumerate()
    {
        if !seen.contains(&digest) {
            seen.push(digest);
            let system = build_tile_fabric(&config, &partition, tile).unwrap();
            let label = format!("8x8 tile {tile} {}", partition.tile(tile).name);
            render(&label, &system, &mut out);
        }
    }
    for (line, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {}", line + 1);
    }
    assert_eq!(out.lines().count(), GOLDEN.lines().count());
}

const GOLDEN: &str = r#"== mesh2x2 dir3 (11 invariants)
dir(1,1).I + dir(1,1).M(0) + dir(1,1).MI(0) + dir(1,1).M(1) + dir(1,1).MI(1) + dir(1,1).M(2) + dir(1,1).MI(2) = 1
cache(0,1).I + cache(0,1).M + cache(0,1).MI = 1
cache(1,0).I + cache(1,0).M + cache(1,0).MI = 1
#q(0,0)→(1,0).getX[0→3] + #q(1,0)→(1,1).getX[0→3] + dir(1,1).M(0) + dir(1,1).MI(0) = #q(0,0)→(1,0).putX[0→3] + #q(1,0)→(1,1).putX[0→3] + cache(0,0).M
#q(1,0)→(1,1).getX[1→3] + dir(1,1).M(1) + dir(1,1).MI(1) = #q(1,0)→(1,1).putX[1→3] + cache(1,0).M
#q(0,0)→(1,0).getX[0→3] + #q(1,0)→(1,1).getX[0→3] + cache(0,0).I + cache(0,0).MI + dir(1,1).M(0) + dir(1,1).MI(0) = #q(0,0)→(1,0).putX[0→3] + #q(1,0)→(1,1).putX[0→3] + 1
#q(1,0)→(1,1).getX[1→3] + #q(1,1)→(1,0).ack[3→1] + dir(1,1).M(1) + dir(1,1).MI(1) = cache(1,0).M + cache(1,0).MI
cache(0,0).I + cache(0,0).M + cache(0,0).MI = 1
#q(0,1)→(1,1).getX[2→3] + dir(1,1).M(2) + dir(1,1).MI(2) = #q(0,1)→(1,1).putX[2→3] + cache(0,1).M
#q(0,1)→(1,1).getX[2→3] + #q(1,1)→(0,1).ack[3→2] + dir(1,1).M(2) + dir(1,1).MI(2) = cache(0,1).M + cache(0,1).MI
#q(0,0)→(1,0).putX[0→3] + #q(0,1)→(0,0).ack[3→0] + #q(1,0)→(1,1).putX[0→3] + #q(1,1)→(0,1).ack[3→0] = cache(0,0).MI
== mesi ring4 dir1 (16 invariants)
cache(3).I + cache(3).IS + cache(3).IM + cache(3).S + cache(3).SM + cache(3).E + cache(3).M + cache(3).MI + cache(3).SI = 1
cache(2).I + cache(2).IS + cache(2).IM + cache(2).S + cache(2).SM + cache(2).E + cache(2).M + cache(2).MI + cache(2).SI = 1
dir(1).I + dir(1).S(1) + dir(1).S(2) + dir(1).S(3) + dir(1).E(0) + dir(1).E(2) + dir(1).E(3) + dir(1).B(0,1) + dir(1).B(2,1) + dir(1).B(3,1) + dir(1).C(0,2) + dir(1).C(0,1) + dir(1).C(2,2) + dir(1).C(2,1) + dir(1).C(3,2) + dir(1).C(3,1) + dir(1).EI(0,2) + dir(1).EIS(0,2) + dir(1).EI(0,3) + dir(1).EIS(0,3) + dir(1).EI(2,0) + dir(1).EIS(2,0) + dir(1).EI(2,3) + dir(1).EIS(2,3) + dir(1).EI(3,0) + dir(1).EIS(3,0) + dir(1).EI(3,2) + dir(1).EIS(3,2) = 1
cache(0).I + cache(0).IS + cache(0).IM + cache(0).S + cache(0).SM + cache(0).E + cache(0).M + cache(0).MI + cache(0).SI = 1
#q(0)→(1).vc1.GetX[3→1] + #q(0)→(1).vc1.Upg[3→1] + #q(1)→(2).vc0.DataX[1→3] + #q(2)→(3).vc0.DataX[1→3] + #q(3)→(0).vc1.GetX[3→1] + #q(3)→(0).vc1.Upg[3→1] + dir(1).B(3,1) + dir(1).C(3,2) + dir(1).C(3,1) + dir(1).EI(0,3) + dir(1).EI(2,3) = cache(3).IM + cache(3).SM
#q(0)→(1).vc1.GetS[3→1] + #q(1)→(2).vc0.DataS[1→3] + #q(1)→(2).vc0.DataE[1→3] + #q(2)→(3).vc0.DataS[1→3] + #q(2)→(3).vc0.DataE[1→3] + #q(3)→(0).vc1.GetS[3→1] + dir(1).EIS(0,3) + dir(1).EIS(2,3) = cache(3).IS
#q(0)→(1).vc1.PutS[3→1] + #q(0)→(1).vc1.PutX[3→1] + #q(1)→(2).vc0.Ack[1→3] + #q(2)→(3).vc0.Ack[1→3] + #q(3)→(0).vc1.PutS[3→1] + #q(3)→(0).vc1.PutX[3→1] = cache(3).MI + cache(3).SI
#q(0)→(1).vc1.Ack[3→1] + #q(1)→(2).vc0.Inv[1→3] + #q(2)→(3).vc0.Inv[1→3] + #q(3)→(0).vc1.Ack[3→1] = dir(1).C(0,2) + dir(1).C(0,1) + dir(1).C(2,2) + dir(1).C(2,1) + dir(1).EI(3,0) + dir(1).EIS(3,0) + dir(1).EI(3,2) + dir(1).EIS(3,2)
#q(0)→(1).vc0.Ack[0→1] + #q(1)→(0).vc0.Inv[1→0] = dir(1).B(2,1) + dir(1).B(3,1) + dir(1).C(2,2) + dir(1).C(3,2) + dir(1).EI(0,2) + dir(1).EIS(0,2) + dir(1).EI(0,3) + dir(1).EIS(0,3)
#q(0)→(1).vc0.PutS[0→1] + #q(0)→(1).vc0.PutX[0→1] + #q(1)→(0).vc0.Ack[1→0] = cache(0).MI + cache(0).SI
#q(1)→(2).vc0.DataX[1→2] + #q(2)→(1).vc0.GetX[2→1] + #q(2)→(1).vc0.Upg[2→1] + dir(1).B(2,1) + dir(1).C(2,2) + dir(1).C(2,1) + dir(1).EI(0,2) + dir(1).EI(3,2) = cache(2).IM + cache(2).SM
#q(0)→(1).vc0.GetS[0→1] + #q(1)→(0).vc0.DataS[1→0] + #q(1)→(0).vc0.DataE[1→0] + dir(1).EIS(2,0) + dir(1).EIS(3,0) = cache(0).IS
#q(0)→(1).vc0.GetX[0→1] + #q(0)→(1).vc0.Upg[0→1] + #q(1)→(0).vc0.DataX[1→0] + dir(1).B(0,1) + dir(1).C(0,2) + dir(1).C(0,1) + dir(1).EI(2,0) + dir(1).EI(3,0) = cache(0).IM + cache(0).SM
#q(1)→(2).vc0.Inv[1→2] + #q(2)→(1).vc0.Ack[2→1] = dir(1).B(0,1) + dir(1).C(0,2) + dir(1).C(3,2) + dir(1).C(3,1) + dir(1).EI(2,0) + dir(1).EIS(2,0) + dir(1).EI(2,3) + dir(1).EIS(2,3)
#q(1)→(2).vc0.Ack[1→2] + #q(2)→(1).vc0.PutS[2→1] + #q(2)→(1).vc0.PutX[2→1] = cache(2).MI + cache(2).SI
#q(1)→(2).vc0.DataS[1→2] + #q(1)→(2).vc0.DataE[1→2] + #q(2)→(1).vc0.GetS[2→1] + dir(1).EIS(0,2) + dir(1).EIS(3,2) = cache(2).IS
== 8x8 tile 0 (0,0) (1 invariants)
cache(0,0).I + cache(0,0).M + cache(0,0).MI = 1
== 8x8 tile 1 (1,0) (1 invariants)
cache(1,0).I + cache(1,0).M + cache(1,0).MI = 1
== 8x8 tile 9 (1,1) (1 invariants)
dir(1,1).I + dir(1,1).M(0) + dir(1,1).MI(0) + dir(1,1).M(1) + dir(1,1).MI(1) + dir(1,1).M(2) + dir(1,1).MI(2) + dir(1,1).M(3) + dir(1,1).MI(3) + dir(1,1).M(4) + dir(1,1).MI(4) + dir(1,1).M(5) + dir(1,1).MI(5) + dir(1,1).M(6) + dir(1,1).MI(6) + dir(1,1).M(7) + dir(1,1).MI(7) + dir(1,1).M(8) + dir(1,1).MI(8) + dir(1,1).M(10) + dir(1,1).MI(10) + dir(1,1).M(11) + dir(1,1).MI(11) + dir(1,1).M(12) + dir(1,1).MI(12) + dir(1,1).M(13) + dir(1,1).MI(13) + dir(1,1).M(14) + dir(1,1).MI(14) + dir(1,1).M(15) + dir(1,1).MI(15) + dir(1,1).M(16) + dir(1,1).MI(16) + dir(1,1).M(17) + dir(1,1).MI(17) + dir(1,1).M(18) + dir(1,1).MI(18) + dir(1,1).M(19) + dir(1,1).MI(19) + dir(1,1).M(20) + dir(1,1).MI(20) + dir(1,1).M(21) + dir(1,1).MI(21) + dir(1,1).M(22) + dir(1,1).MI(22) + dir(1,1).M(23) + dir(1,1).MI(23) + dir(1,1).M(24) + dir(1,1).MI(24) + dir(1,1).M(25) + dir(1,1).MI(25) + dir(1,1).M(26) + dir(1,1).MI(26) + dir(1,1).M(27) + dir(1,1).MI(27) + dir(1,1).M(28) + dir(1,1).MI(28) + dir(1,1).M(29) + dir(1,1).MI(29) + dir(1,1).M(30) + dir(1,1).MI(30) + dir(1,1).M(31) + dir(1,1).MI(31) + dir(1,1).M(32) + dir(1,1).MI(32) + dir(1,1).M(33) + dir(1,1).MI(33) + dir(1,1).M(34) + dir(1,1).MI(34) + dir(1,1).M(35) + dir(1,1).MI(35) + dir(1,1).M(36) + dir(1,1).MI(36) + dir(1,1).M(37) + dir(1,1).MI(37) + dir(1,1).M(38) + dir(1,1).MI(38) + dir(1,1).M(39) + dir(1,1).MI(39) + dir(1,1).M(40) + dir(1,1).MI(40) + dir(1,1).M(41) + dir(1,1).MI(41) + dir(1,1).M(42) + dir(1,1).MI(42) + dir(1,1).M(43) + dir(1,1).MI(43) + dir(1,1).M(44) + dir(1,1).MI(44) + dir(1,1).M(45) + dir(1,1).MI(45) + dir(1,1).M(46) + dir(1,1).MI(46) + dir(1,1).M(47) + dir(1,1).MI(47) + dir(1,1).M(48) + dir(1,1).MI(48) + dir(1,1).M(49) + dir(1,1).MI(49) + dir(1,1).M(50) + dir(1,1).MI(50) + dir(1,1).M(51) + dir(1,1).MI(51) + dir(1,1).M(52) + dir(1,1).MI(52) + dir(1,1).M(53) + dir(1,1).MI(53) + dir(1,1).M(54) + dir(1,1).MI(54) + dir(1,1).M(55) + dir(1,1).MI(55) + dir(1,1).M(56) + dir(1,1).MI(56) + dir(1,1).M(57) + dir(1,1).MI(57) + dir(1,1).M(58) + dir(1,1).MI(58) + dir(1,1).M(59) + dir(1,1).MI(59) + dir(1,1).M(60) + dir(1,1).MI(60) + dir(1,1).M(61) + dir(1,1).MI(61) + dir(1,1).M(62) + dir(1,1).MI(62) + dir(1,1).M(63) + dir(1,1).MI(63) = 1
== 8x8 tile 10 (2,1) (1 invariants)
cache(2,1).I + cache(2,1).M + cache(2,1).MI = 1
"#;
