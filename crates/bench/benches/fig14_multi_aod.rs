//! Fig. 14: circuit fidelity with 1–4 AODs.
//!
//! Paper claims: two AODs give ~10% fidelity improvement; the third and
//! fourth add only ~2% because rearrangement parallelism saturates.
//!
//! Each AOD arm compiles the suite independently; the arch × circuit matrix
//! fans out through [`BatchRunner`].

use zac_arch::Architecture;
use zac_bench::{default_suite, geomean, print_header, BatchRunner};
use zac_core::{Compiler, Labeled, Zac, ZacConfig};

fn main() {
    print_header(
        "Fig. 14 — AOD number comparison",
        "2 AODs: +10% fidelity; 3rd and 4th AOD: +2% more",
    );

    let suite = default_suite();
    let labels = ["1AOD", "2AOD", "3AOD", "4AOD"];
    let arms: Vec<Box<dyn Compiler>> = (1..=4usize)
        .map(|k| {
            let arch = Architecture::reference().with_num_aods(k);
            let zac = Zac::with_config(arch, ZacConfig::full());
            Box::new(Labeled::new(labels[k - 1], zac)) as Box<dyn Compiler>
        })
        .collect();

    let rows = BatchRunner::parallel().run(&arms, &suite);

    print!("{:<22}", "circuit");
    for label in labels {
        print!("{label:>18}");
    }
    println!();

    let mut per_k: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for row in &rows {
        print!("{:<22}", row.name);
        for (k, label) in labels.iter().enumerate() {
            match row.result(label) {
                Some(r) => {
                    per_k[k].push(r.fidelity());
                    print!("{:>18.4e}", r.fidelity());
                }
                None => print!("{:>18}", "-"),
            }
        }
        println!();
    }

    print!("{:<22}", "GMean");
    let gms: Vec<f64> = per_k.iter().map(|v| geomean(v)).collect();
    for g in &gms {
        print!("{g:>18.4e}");
    }
    println!();
    println!("\ngains over 1 AOD (paper in parentheses):");
    println!("  2 AODs: {:+.1}% (+10%)", (gms[1] / gms[0] - 1.0) * 100.0);
    println!("  3 AODs: {:+.1}%", (gms[2] / gms[0] - 1.0) * 100.0);
    println!("  4 AODs: {:+.1}% (2 AOD +2%)", (gms[3] / gms[0] - 1.0) * 100.0);
}
