//! The shims are transparent: a traced round produces exactly the
//! deterministic results of an untraced one, on every workload.

use neuropuls_perfbench::runner::{per_layer, Workload};
use neuropuls_perfbench::Size;

#[test]
fn traced_and_untraced_rounds_agree_on_every_workload() {
    for workload in Workload::ALL {
        let plain = workload
            .round(7, Size::Small, false)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let traced = workload
            .round(7, Size::Small, true)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(
            plain.pass.digest,
            traced.pass.digest,
            "{}: tracing changed the run",
            workload.name()
        );
        assert!(plain.pass.completed > 0, "{}", workload.name());
        assert_eq!(
            plain.pass.completed,
            plain.pass.attempted,
            "{}",
            workload.name()
        );
        assert_eq!(plain.pass.latencies_ns.len() as u64, plain.pass.completed);

        // The split covers the traced run's wall time exactly.
        let metrics = per_layer(workload, &[plain.clone(), traced])
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let shares: f64 = metrics
            .iter()
            .filter(|(name, _, _)| {
                name.ends_with("self_share") || *name == "trace.unattributed_share"
            })
            .map(|(_, v, _)| v)
            .sum();
        assert!((shares - 1.0).abs() < 1e-6, "{}: {shares}", workload.name());

        let again = workload
            .round(7, Size::Small, false)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert_eq!(plain.pass.digest, again.pass.digest, "{}", workload.name());
    }
}

#[test]
fn seeds_change_the_inputs() {
    let a = Workload::SealedInfer.round(1, Size::Small, false).unwrap();
    let b = Workload::SealedInfer.round(2, Size::Small, false).unwrap();
    assert_ne!(a.pass.digest, b.pass.digest);
}
