//! CLI entry point: regenerate the paper's tables and figures.

use tpm_harness::cli::{self, Cli};
use tpm_harness::experiments::{self, check_claims};
use tpm_harness::native::{self, NativeConfig};
use tpm_harness::{chaos, desim, profile, service, top};

/// Count every heap operation so `serve` can report measured
/// allocations-per-request instead of estimates.
#[global_allocator]
static ALLOC: tpm_alloc::CountingAlloc = tpm_alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", cli::USAGE);
            std::process::exit(2);
        }
    };

    // Load the fault plan before any work: a malformed plan is a usage
    // error (exit 2) reported with its file:line:column, not a late panic.
    let fault_plan = match cli.common.fault_plan.as_deref().map(chaos::load_plan) {
        None => None,
        Some(Ok(plan)) => Some(plan),
        Some(Err(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    // The `chaos` subcommand installs plans round-by-round itself, and
    // `desim` feeds the plan to its own in-simulator evaluator (a global
    // session would double-fire probes inside the real kernel runs); every
    // other experiment runs under the plan for its whole duration.
    let _session = match &cli.experiment[..] {
        "chaos" | "desim" => None,
        _ => fault_plan.as_ref().map(tpm_fault::FaultSession::install),
    };

    std::process::exit(run(&cli, fault_plan));
}

/// Runs the selected experiment; returns the process exit code.
fn run(cli: &Cli, fault_plan: Option<tpm_fault::FaultPlan>) -> i32 {
    let Cli {
        experiment,
        kernel,
        common,
        service,
    } = cli;
    let cli::CommonOpts {
        native: use_native,
        cfg,
        trace,
        json_out,
        pin,
        fault_plan: _, // consumed in main(); the session is already live
    } = common;

    if *pin {
        // The runtimes consult TPM_PIN when they spawn workers; the flag is
        // just the CLI spelling of the env knob.
        std::env::set_var("TPM_PIN", "1");
    }

    type SimFig = fn() -> tpm_core::Figure;
    let sim_figs: [(usize, SimFig); 10] = [
        (1, experiments::fig1_axpy),
        (2, experiments::fig2_sum),
        (3, experiments::fig3_matvec),
        (4, experiments::fig4_matmul),
        (5, experiments::fig5_fib),
        (6, experiments::fig6_bfs),
        (7, experiments::fig7_hotspot),
        (8, experiments::fig8_lud),
        (9, experiments::fig9_lavamd),
        (10, experiments::fig10_srad),
    ];
    type NativeFig = fn(&NativeConfig) -> tpm_core::Figure;
    let native_figs: [(usize, NativeFig); 10] = [
        (1, native::fig1_axpy),
        (2, native::fig2_sum),
        (3, native::fig3_matvec),
        (4, native::fig4_matmul),
        (5, native::fig5_fib),
        (6, native::fig6_bfs),
        (7, native::fig7_hotspot),
        (8, native::fig8_lud),
        (9, native::fig9_lavamd),
        (10, native::fig10_srad),
    ];

    // Runs `f` under a trace session when --trace was given, writing the
    // Chrome-trace JSON and printing the per-worker summary and timeline.
    let traced = |f: &dyn Fn()| -> i32 {
        match trace {
            None => {
                f();
                0
            }
            Some(path) => {
                let session = tpm_trace::TraceSession::start();
                f();
                let t = session.stop();
                match std::fs::write(path, t.chrome_json()) {
                    Ok(()) => {
                        println!(
                            "[trace] {} events from {} workers -> {} (load in https://ui.perfetto.dev)",
                            t.total_events(),
                            t.worker_count(),
                            path.display()
                        );
                        println!("{}", t.timeline(72));
                        println!("{}", t.summary().render());
                        0
                    }
                    Err(e) => {
                        eprintln!("error: cannot write trace file {}: {e}", path.display());
                        1
                    }
                }
            }
        }
    };

    // Figures collected for --json-out (only filled when requested).
    let collected: std::cell::RefCell<Vec<tpm_core::Figure>> = std::cell::RefCell::new(Vec::new());

    let run_fig = |no: usize| {
        if *use_native {
            let f = native_figs[no - 1].1(cfg);
            println!("{}", f.to_table());
            if json_out.is_some() {
                collected.borrow_mut().push(f);
            }
        } else {
            let f = sim_figs[no - 1].1();
            println!("{}", f.to_table());
            let violations = check_claims(no, &f);
            if violations.is_empty() {
                println!("[check] all paper claims for Fig.{no} reproduced\n");
            } else {
                for v in &violations {
                    println!("[check] VIOLATION: {v}");
                }
                println!();
            }
            if json_out.is_some() {
                collected.borrow_mut().push(f);
            }
        }
    };

    // Writes the collected figures to --json-out (no-op when not requested);
    // `native` says whether they were measured or simulated.
    let write_json = |code: i32, native: bool| -> i32 {
        let Some(path) = json_out else { return code };
        if code != 0 {
            return code;
        }
        let figs = collected.borrow();
        let body = tpm_harness::json::run_json(experiment, native, *pin, cfg, &figs);
        match std::fs::write(path, body) {
            Ok(()) => {
                println!("[json] {} figure(s) -> {}", figs.len(), path.display());
                0
            }
            Err(e) => {
                eprintln!("error: cannot write json file {}: {e}", path.display());
                1
            }
        }
    };

    match experiment.as_str() {
        "ht" => {
            let fig = experiments::ht_extension();
            println!("{}", fig.to_table());
            if json_out.is_some() {
                collected.borrow_mut().push(fig);
            }
            write_json(0, false)
        }
        "numasim" => {
            let rows = experiments::numasim_rows();
            println!("{}", experiments::numasim_figure_from(&rows).to_table());
            match json_out {
                None => 0,
                Some(path) => match std::fs::write(path, experiments::numasim_json(&rows)) {
                    Ok(()) => {
                        println!("[json] numasim sweep -> {}", path.display());
                        0
                    }
                    Err(e) => {
                        eprintln!("error: cannot write json file {}: {e}", path.display());
                        1
                    }
                },
            }
        }
        "profile" => {
            let kernel = kernel.as_deref().unwrap_or("sum");
            match profile::run(cfg, kernel, trace.as_deref()) {
                Ok(table) => {
                    println!("{}", table.to_table());
                    if let Some(path) = trace {
                        println!(
                            "[trace] per-model Chrome-trace JSON written next to {}",
                            path.display()
                        );
                    }
                    0
                }
                Err(msg) => {
                    eprintln!("error: {msg}");
                    eprintln!("{}", cli::USAGE);
                    2
                }
            }
        }
        "chaos" => {
            let threads = cfg.threads.iter().copied().max().unwrap_or(4);
            chaos::run(fault_plan, threads, &cfg.models)
        }
        "desim" => desim::run(fault_plan, service, kernel.as_deref()),
        "serve" => service::run_serve(service),
        "loadgen" => {
            let job = kernel.as_deref().unwrap_or("sum");
            service::run_loadgen(job, service, cfg.variant, json_out.as_deref())
        }
        "top" => top::run(service),
        "metrics" => top::run_once(service),
        "table1" => {
            println!("{}", tpm_features::table1());
            0
        }
        "table2" => {
            println!("{}", tpm_features::table2());
            0
        }
        "table3" => {
            println!("{}", tpm_features::table3());
            0
        }
        "tables" => {
            println!("{}", tpm_features::table1());
            println!("{}", tpm_features::table2());
            println!("{}", tpm_features::table3());
            0
        }
        "figures" => {
            let code = traced(&|| {
                for no in 1..=10 {
                    run_fig(no);
                }
            });
            write_json(code, *use_native)
        }
        f if f.starts_with("fig") => {
            let no: usize = f[3..].parse().unwrap_or(0);
            if !(1..=10).contains(&no) {
                eprintln!("error: unknown experiment {f}");
                eprintln!("{}", cli::USAGE);
                return 2;
            }
            let code = traced(&|| run_fig(no));
            write_json(code, *use_native)
        }
        "check" => {
            let mut all_ok = true;
            for (no, f) in sim_figs {
                let fig = f();
                let violations = check_claims(no, &fig);
                if violations.is_empty() {
                    println!("Fig.{no}: OK");
                } else {
                    all_ok = false;
                    for v in violations {
                        println!("Fig.{no}: VIOLATION {v}");
                    }
                }
            }
            if all_ok {
                0
            } else {
                1
            }
        }
        "all" => {
            println!("{}", tpm_features::table1());
            println!("{}", tpm_features::table2());
            println!("{}", tpm_features::table3());
            let code = traced(&|| {
                for no in 1..=10 {
                    run_fig(no);
                }
            });
            write_json(code, *use_native)
        }
        other => {
            eprintln!("error: unknown experiment {other}");
            eprintln!("{}", cli::USAGE);
            2
        }
    }
}
