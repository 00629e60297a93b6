//! Property tests for the experiment harness invariants that the rest
//! of the PR leans on: matrix expansion is exactly the cross product
//! (count, uniqueness, deterministic order) and workload generation is
//! a pure function of (spec, clients, seed).

use std::path::Path;

use experiments::scenario::Scenario;
use experiments::workload::{generate, WorkloadKind, WorkloadSpec};
use proptest::prelude::*;

const MODES: [&str; 4] = ["ciod", "zoid", "sched", "staged"];
const COALESCE: [&str; 2] = ["off", "on"];

/// Build a valid scenario whose axis cardinalities are the inputs.
fn scenario_with(n_modes: usize, n_coalesce: usize, n_clients: usize) -> Scenario {
    let axis = |name: &str, values: &[String]| {
        format!(
            "{name} = [{}]\n",
            values
                .iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    let modes: Vec<String> = MODES[..n_modes].iter().map(|s| s.to_string()).collect();
    let coalesce: Vec<String> = COALESCE[..n_coalesce]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let clients: Vec<String> = (1..=n_clients).map(|n| n.to_string()).collect();
    let text = format!(
        "[scenario]\nname = \"prop\"\nseed = 1\n\n\
         [workload]\nkind = \"manytask\"\ntasks = 1\ntask_bytes = 64\n\n\
         [axes]\n{}{}{}",
        axis("mode", &modes),
        axis("coalesce", &coalesce),
        axis("clients", &clients),
    );
    Scenario::parse(&text, Path::new("prop.toml")).expect("generated scenario must parse")
}

/// Every committed scenario loads through the schema and expands to the
/// product of its axes, whether or not a ci.sh step runs it.
#[test]
fn every_committed_scenario_loads_and_expands() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut seen = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("scenarios directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let scenario = Scenario::load(&path).unwrap_or_else(|e| panic!("{e}"));
        let cells = scenario.expand();
        let product: usize = scenario.axes.iter().map(|a| a.values.len()).product();
        assert_eq!(cells.len(), product, "{}", path.display());
        seen.push((scenario.name, cells.len()));
    }
    seen.sort();
    // The two data-only scenarios: the paper's mode ladder and Fig. 11's
    // worker sweep (4 worker counts per worker-pool mode).
    assert!(seen.contains(&("mode-ladder".to_string(), 4)), "{seen:?}");
    assert!(seen.contains(&("worker-sweep".to_string(), 8)), "{seen:?}");
}

/// The attribution on/off axis went with the switch it drove.
#[test]
fn attribution_is_not_an_axis() {
    let text = "[scenario]\nname = \"prop\"\n\n\
                [workload]\nkind = \"manytask\"\ntasks = 1\ntask_bytes = 64\n\n\
                [axes]\nattribution = [\"on\", \"off\"]\n";
    let err = Scenario::parse(text, Path::new("prop.toml")).expect_err("unknown axis");
    assert!(err.contains("unknown axis `attribution`"), "{err}");
}

proptest! {
    #[test]
    fn expansion_is_the_exact_cross_product(
        n_modes in 1usize..5,
        n_coalesce in 1usize..3,
        n_clients in 1usize..5,
    ) {
        let scenario = scenario_with(n_modes, n_coalesce, n_clients);
        let cells = scenario.expand();
        prop_assert_eq!(cells.len(), n_modes * n_coalesce * n_clients);

        // Names are unique...
        let mut names: Vec<&str> = cells.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        prop_assert_eq!(names.len(), before);

        // ...slugs stay unique after filesystem mangling...
        let mut slugs: Vec<String> = cells.iter().map(|c| c.slug()).collect();
        slugs.sort_unstable();
        let before = slugs.len();
        slugs.dedup();
        prop_assert_eq!(slugs.len(), before);

        // ...and expansion is deterministic.
        prop_assert_eq!(&cells, &scenario.expand());
    }

    #[test]
    fn expansion_order_is_odometer(
        n_modes in 2usize..5,
        n_clients in 2usize..5,
    ) {
        let scenario = scenario_with(n_modes, 1, n_clients);
        let cells = scenario.expand();
        // Last axis (clients) varies fastest: the first n_clients cells
        // share the first mode.
        for (i, cell) in cells.iter().take(n_clients).enumerate() {
            prop_assert_eq!(cell.axis("mode"), Some(MODES[0]));
            prop_assert_eq!(cell.axis("clients"), Some(&*format!("{}", i + 1)));
        }
        // First axis (mode) varies slowest, in declaration order.
        for (m, chunk) in cells.chunks(n_clients).enumerate() {
            for cell in chunk {
                prop_assert_eq!(cell.axis("mode"), Some(MODES[m]));
            }
        }
    }

    #[test]
    fn replay_streams_are_seed_deterministic(
        kind in prop_oneof![
            Just(WorkloadKind::Madbench),
            Just(WorkloadKind::Mixed),
            Just(WorkloadKind::ManyTask),
        ],
        seed in 0u64..1_000_000,
        clients in 1usize..5,
    ) {
        let mut spec = WorkloadSpec::new(kind);
        // Keep the streams small; determinism is about identity, not size.
        spec.bins = 2;
        spec.chunks_per_bin = 3;
        spec.stripes = 2;
        spec.meta_files = 3;
        spec.rereads = 3;
        spec.tasks = 3;

        let encode = |streams: &Vec<Vec<experiments::workload::ReplayOp>>| -> String {
            streams
                .iter()
                .map(|ops| ops.iter().map(|o| o.encode()).collect::<Vec<_>>().join("\n"))
                .collect::<Vec<_>>()
                .join("\n--\n")
        };

        // Same seed: byte-identical op streams.
        let a = encode(&generate(&spec, clients, seed));
        let b = encode(&generate(&spec, clients, seed));
        prop_assert_eq!(&a, &b);

        // A different seed perturbs the stream (fills and/or offsets).
        let c = encode(&generate(&spec, clients, seed ^ 0x9e37_79b9_7f4a_7c15));
        prop_assert_ne!(&a, &c);

        // Growing the client count leaves existing clients' streams
        // untouched (the split chain is per-client).
        let grown = generate(&spec, clients + 1, seed);
        let base = generate(&spec, clients, seed);
        for (i, stream) in base.iter().enumerate() {
            prop_assert_eq!(stream, &grown[i]);
        }
    }
}
