//! Minimal deadlock-free queue sizes (Figure 4 of the paper).
//!
//! For each mesh size and directory position, ADVOCAT searches for the
//! smallest queue size for which deadlock freedom can be proven.  The paper
//! reports, e.g., that a 4×4 mesh with the directory at (1,1) needs queues
//! of at least 15; our fabric model is a reimplementation, so the absolute
//! numbers differ, but the *shape* — larger meshes and more eccentric
//! directory positions need deeper queues — is reproduced.
//!
//! Run with: `cargo run --release --example queue_sizing`
//! (the whole sweep, 3×3 meshes included, takes well under a second in
//! release on a 2-core host)

use advocat::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Minimal deadlock-free queue sizes (Fig. 4) ==\n");
    println!(
        "{:<8} {:<12} {:<10} evaluations",
        "mesh", "directory", "min size"
    );

    let cases: [(u32, u32, u32, u32); 6] = [
        // (width, height, dir_x, dir_y)
        (2, 2, 0, 0),
        (2, 2, 1, 1),
        (3, 2, 0, 0),
        (3, 2, 1, 0),
        (3, 3, 0, 0),
        (3, 3, 1, 1),
    ];

    for (w, h, dx, dy) in cases {
        let config = FabricConfig::new(Topology::mesh(w, h)?, 1)
            .with_directory((dy * w + dx) as usize)
            .with_protocol(ProtocolKind::AbstractMi);
        let system = build_fabric_for_sweep(&config, 12)?;
        let result = QueryEngine::on(system, 2..=12).minimal_capacity(&Query::new());
        let min = result
            .minimal_queue_size
            .map(|s| s.to_string())
            .unwrap_or_else(|| "> 12".to_owned());
        let evals: Vec<String> = result
            .evaluations
            .iter()
            .map(|(size, free)| format!("{size}:{}", if *free { "free" } else { "dl" }))
            .collect();
        println!(
            "{:<8} {:<12} {:<10} {}",
            format!("{w}x{h}"),
            format!("({dx},{dy})"),
            min,
            evals.join(" ")
        );
    }
    println!(
        "\nShape check (paper Fig. 4): central directories need smaller queues than corner\n\
         directories, and the required size grows with the mesh."
    );
    Ok(())
}
