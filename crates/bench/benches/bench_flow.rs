//! Criterion bench of the system-evaluation stage (the part both flows
//! share and the paper keeps on commercial tools): full mapping →
//! placement → STA → power on two design sizes, showing the runtime
//! growth that shapes Table I's speedup column, plus the annealing
//! placer alone on a mid-size and the largest design.

use criterion::{criterion_group, criterion_main, Criterion};
use stco_bench::bench_char_config;
use stco_cells::liberty::Library;
use stco_compact::tech::TechnologyCard;
use stco_system::bench_gen::Benchmark;
use stco_system::mapper::map_netlist;
use stco_system::place::place;
use stco_system::ppa::{evaluate_system, map_netlist_cells, EvalConfig};
use stco_tcad::materials::Technology;

fn bench_system_eval(c: &mut Criterion) {
    let card = TechnologyCard::reference(Technology::Ltps);
    let mut group = c.benchmark_group("system_evaluation");
    group.sample_size(10);
    for bench in [Benchmark::S298, Benchmark::S1488] {
        let logic = bench.generate();
        let cells = map_netlist_cells(&logic).expect("cells");
        let library = Library::characterize_subset(&card, &bench_char_config(), &cells)
            .expect("library characterizes");
        group.bench_function(bench.name(), |b| {
            b.iter(|| evaluate_system(&logic, &library, &EvalConfig::fast()).expect("evaluates"))
        });
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let config = EvalConfig::fast().place;
    let mut group = c.benchmark_group("placement");
    group.sample_size(10);
    for bench in [Benchmark::S1488, Benchmark::Darkriscv] {
        let mapped = map_netlist(&bench.generate()).expect("maps");
        group.bench_function(bench.name(), |b| {
            b.iter(|| place(&mapped, &config).expect("places"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_system_eval, bench_placement);
criterion_main!(benches);
