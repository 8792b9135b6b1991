//! Command-line parsing for the `tpm-harness` binary.
//!
//! Parsing is a pure function returning `Result`, so malformed input produces
//! a usage message and exit code 2 instead of a panic — and so it can be unit
//! tested without spawning the binary.
//!
//! Flags live in two shared structs instead of one flat bag: [`CommonOpts`]
//! (the sweep/tracing/output flags every experiment understands) and
//! [`ServiceOpts`] (the server/load-generator knobs that `serve` and
//! `loadgen` both read). New subcommands get the whole flag surface for free
//! by consuming the structs.

use std::path::PathBuf;

use tpm_core::Model;

use crate::native::NativeConfig;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "usage: tpm-harness <experiment> [kernel] [--native] [--threads 1,2,4] \
[--reps N] [--scale S] [--trace out.json] [--json-out bench.json] [--pin] \
[--kernel-variant reference|optimized] [service flags]
experiments: table1 table2 table3 fig1..fig10 figures tables all check ht numasim
             profile serve loadgen top metrics chaos desim
  numasim            sweep NUMA placement (packed|scatter) x steal-victim
                     policy (random|node_aware) on the simulated two-socket
                     testbed; --json-out writes the row table
  profile [kernel]   run one kernel (sum|axpy|fib) under the selected models
                     and print side-by-side scheduler-event summaries
  serve              run the cancellable job server (JSON lines over TCP)
  loadgen [job]      drive a running server closed-loop and report
                     throughput + p50/p99 latency (default job: sum)
  top                scrape a running server's metrics each tick and render
                     a live dashboard: req/s by outcome, latency quantiles,
                     per-worker utilization, steal ratio, per-kernel p99
  metrics            print one raw Prometheus scrape from a running server
  chaos              run the fault-injection matrix (seeded plans x the
                     selected models, default the whole registry) and verify
                     containment, recovery and replay; needs a build with
                     --features inject
  desim [kernel]     run the deterministic whole-service simulator: seeded
                     virtual network + simulated node driving the real
                     tpm-serve state machines, audited by the invariant
                     suite; sweeps seeds and reports any violation with a
                     replayable seed (default kernel: sum)
  --fault-plan f.json install a fault plan (tpm-fault JSON) for the run;
                     malformed plans are reported with file:line:column and
                     exit 2. Probes are compiled out without --features
                     inject (the flag then warns and is ignored)
  --trace out.json   capture a scheduler trace of the run and write
                     Chrome-trace JSON loadable in Perfetto
  --json-out f.json  write machine-readable per-kernel/per-model results
                     (median + stddev seconds) for figure experiments and
                     ht, or the loadgen report (not accepted by check)
  --pin              pin runtime worker threads to cores (TPM_PIN=1)
  --kernel-variant v run native kernels with the reference (paper-faithful
                     scalar) or optimized (vectorized/blocked/tiled) data
                     path; default reference
service flags (serve + loadgen):
  --addr host:port   bind (serve) or connect (loadgen) address
                     [default 127.0.0.1:7171]
  --workers N        server worker threads draining the job queue [2]
  --queue N          bounded admission-queue capacity; requests beyond it
                     are shed with an `overloaded` reply [32]
  --max-threads N    largest per-job thread count the server accepts [8]
  --clients N        loadgen: concurrent persistent connections [4]
  --connections N    loadgen: alias of --clients
  --requests N       loadgen: requests issued per connection [20]
  --protocol p       loadgen: wire protocol, json|binary [json]
  --window N         loadgen: requests kept in flight per connection
                     (pipelining; 1 = closed loop) [1]
  --size N           loadgen: problem size sent in each job request [4096]
  --model sel        model selection: 'all', one registry name, or a comma
                     list (e.g. omp_for,actor_task); figures/profile/chaos
                     sweep the selection, loadgen runs each job under the
                     first name [sweeps: all; loadgen: omp_for]
  --deadline-ms N    loadgen: per-request deadline forwarded to the server
  --job-threads N    loadgen: per-job thread count in each request [1]
  --metrics-out f    serve: write the final metrics snapshot (one JSON line)
                     here on shutdown [default: stderr]
  --interval-ms N    top: milliseconds between dashboard refreshes [1000]
  --frames N         top: render N frames then exit [default: until killed]
desim flags:
  --seed N           desim: first seed of the sweep [1]
  --seeds N          desim: how many consecutive seeds to run [1]
  --until-failure    desim: keep advancing seeds until an invariant breaks
                     (caps at 100000 seeds), then print the failure report
  --replay           desim: run the seed twice and require byte-identical
                     event logs, then print the log
  --gap-us N         desim: virtual gap between a client's requests [500]
  --bug name         desim: plant a known bug (lose-job|watchdog-gate) to
                     prove the invariant checker catches it";

/// Flags every experiment understands: sweep shape, tracing, output, pinning.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// Run natively instead of on the simulator.
    pub native: bool,
    /// Native sweep configuration.
    pub cfg: NativeConfig,
    /// Write a Chrome-trace JSON of the run here.
    pub trace: Option<PathBuf>,
    /// Write machine-readable benchmark results here.
    pub json_out: Option<PathBuf>,
    /// Pin runtime worker threads to cores (sets `TPM_PIN=1`).
    pub pin: bool,
    /// Install the fault plan at this path (tpm-fault JSON) for the run.
    pub fault_plan: Option<PathBuf>,
}

/// Knobs shared by the `serve` and `loadgen` subcommands.
#[derive(Debug, Clone)]
pub struct ServiceOpts {
    /// Bind (serve) or connect (loadgen) address.
    pub addr: String,
    /// Server worker threads draining the admission queue.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue: usize,
    /// Largest per-job thread count the server accepts.
    pub max_threads: usize,
    /// Loadgen: concurrent persistent connections (`--clients` /
    /// `--connections`).
    pub clients: usize,
    /// Loadgen: requests issued per client.
    pub requests: usize,
    /// Loadgen: wire protocol each connection speaks.
    pub protocol: tpm_serve::Protocol,
    /// Loadgen: requests kept in flight per connection (1 = closed loop).
    pub window: usize,
    /// Loadgen: problem size sent in each job request.
    pub size: usize,
    /// Loadgen: threading model each job runs under.
    pub model: Model,
    /// Loadgen: per-request deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Loadgen: per-job thread count sent in each request.
    pub job_threads: usize,
    /// Serve: write the final metrics snapshot here on shutdown.
    pub metrics_out: Option<PathBuf>,
    /// Top: milliseconds between dashboard refreshes.
    pub interval_ms: u64,
    /// Top: render this many frames then exit (`None` = until killed).
    pub frames: Option<usize>,
    /// Desim: first seed of the sweep.
    pub seed: u64,
    /// Desim: how many consecutive seeds to run.
    pub seeds: usize,
    /// Desim: advance seeds until an invariant breaks.
    pub until_failure: bool,
    /// Desim: run the seed twice and require byte-identical logs.
    pub replay: bool,
    /// Desim: virtual gap between a client's consecutive requests (µs).
    pub gap_us: u64,
    /// Desim: plant a named bug to validate the invariant checker.
    pub bug: Option<String>,
}

impl Default for ServiceOpts {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".to_string(),
            workers: 2,
            queue: 32,
            max_threads: 8,
            clients: 4,
            requests: 20,
            protocol: tpm_serve::Protocol::Json,
            window: 1,
            size: 4096,
            model: Model::OmpFor,
            deadline_ms: None,
            job_threads: 1,
            metrics_out: None,
            interval_ms: 1000,
            frames: None,
            seed: 1,
            seeds: 1,
            until_failure: false,
            replay: false,
            gap_us: 500,
            bug: None,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The experiment name (first positional argument).
    pub experiment: String,
    /// Optional second positional argument (the `profile` kernel or
    /// `loadgen` job name).
    pub kernel: Option<String>,
    /// Flags shared by every experiment.
    pub common: CommonOpts,
    /// Flags shared by the service subcommands.
    pub service: ServiceOpts,
}

/// Parses `args` (without the program name). On error, the message already
/// names the offending flag and value.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    if args.is_empty() {
        return Err("missing experiment name".into());
    }
    let mut experiment = String::new();
    let mut kernel = None;
    let mut common = CommonOpts::default();
    let mut service = ServiceOpts::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--native" => common.native = true,
            "--threads" => {
                let v = flag_value(args, &mut i, "--threads")?;
                let threads = v
                    .split(',')
                    .map(|t| {
                        t.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or_else(|| {
                                format!("invalid --threads value '{v}': '{t}' is not a positive integer")
                            })
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                if threads.is_empty() {
                    return Err(format!("invalid --threads value '{v}': empty list"));
                }
                common.cfg.threads = threads;
            }
            "--reps" => {
                common.cfg.reps = positive(args, &mut i, "--reps")?;
            }
            "--scale" => {
                common.cfg.scale = positive(args, &mut i, "--scale")?;
            }
            "--trace" => {
                let v = flag_value(args, &mut i, "--trace")?;
                common.trace = Some(PathBuf::from(v));
            }
            "--json-out" => {
                let v = flag_value(args, &mut i, "--json-out")?;
                common.json_out = Some(PathBuf::from(v));
            }
            "--pin" => common.pin = true,
            "--fault-plan" => {
                let v = flag_value(args, &mut i, "--fault-plan")?;
                common.fault_plan = Some(PathBuf::from(v));
            }
            "--kernel-variant" => {
                let v = flag_value(args, &mut i, "--kernel-variant")?;
                common.cfg.variant = tpm_core::KernelVariant::parse(v).ok_or_else(|| {
                    format!("invalid --kernel-variant value '{v}': expected reference|optimized")
                })?;
            }
            "--addr" => {
                service.addr = flag_value(args, &mut i, "--addr")?.to_string();
            }
            "--workers" => {
                service.workers = positive(args, &mut i, "--workers")?;
            }
            "--queue" => {
                service.queue = positive(args, &mut i, "--queue")?;
            }
            "--max-threads" => {
                service.max_threads = positive(args, &mut i, "--max-threads")?;
            }
            "--clients" | "--connections" => {
                service.clients = positive(args, &mut i, arg)?;
            }
            "--requests" => {
                service.requests = positive(args, &mut i, "--requests")?;
            }
            "--protocol" => {
                let v = flag_value(args, &mut i, "--protocol")?;
                service.protocol = tpm_serve::Protocol::parse(v).ok_or_else(|| {
                    format!("invalid --protocol value '{v}': expected json|binary")
                })?;
            }
            "--window" => {
                service.window = positive(args, &mut i, "--window")?;
            }
            "--size" => {
                service.size = positive(args, &mut i, "--size")?;
            }
            "--model" => {
                let v = flag_value(args, &mut i, "--model")?;
                let models = Model::parse_list(v)
                    .map_err(|e| format!("invalid --model value '{v}': {e}"))?;
                // Sweeping experiments (figures/profile/chaos) take the whole
                // selection; loadgen sends one model per job, the first.
                service.model = models[0];
                common.cfg.models = models;
            }
            "--deadline-ms" => {
                service.deadline_ms = Some(positive(args, &mut i, "--deadline-ms")? as u64);
            }
            "--job-threads" => {
                service.job_threads = positive(args, &mut i, "--job-threads")?;
            }
            "--metrics-out" => {
                let v = flag_value(args, &mut i, "--metrics-out")?;
                service.metrics_out = Some(PathBuf::from(v));
            }
            "--interval-ms" => {
                service.interval_ms = positive(args, &mut i, "--interval-ms")? as u64;
            }
            "--frames" => {
                service.frames = Some(positive(args, &mut i, "--frames")?);
            }
            "--seed" => {
                let v = flag_value(args, &mut i, "--seed")?;
                service.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("invalid --seed value '{v}': expected an integer"))?;
            }
            "--seeds" => {
                service.seeds = positive(args, &mut i, "--seeds")?;
            }
            "--until-failure" => service.until_failure = true,
            "--replay" => service.replay = true,
            "--gap-us" => {
                service.gap_us = positive(args, &mut i, "--gap-us")? as u64;
            }
            "--bug" => {
                let v = flag_value(args, &mut i, "--bug")?;
                if !matches!(v, "lose-job" | "watchdog-gate") {
                    return Err(format!(
                        "invalid --bug value '{v}': expected lose-job|watchdog-gate"
                    ));
                }
                service.bug = Some(v.to_string());
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            other if experiment.is_empty() => experiment = other.to_string(),
            other if kernel.is_none() => kernel = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
        i += 1;
    }
    if experiment.is_empty() {
        return Err("missing experiment name".into());
    }
    if experiment == "check" && common.json_out.is_some() {
        // Refused rather than ignored: a run that exits 0 and writes no file
        // looks like a success to whatever reads the file.
        return Err("check has no --json-out rows yet".into());
    }
    Ok(Cli {
        experiment,
        kernel,
        common,
        service,
    })
}

/// Returns the value following a flag, advancing the cursor past it.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .filter(|v| !v.starts_with("--"))
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Parses the flag's value as a positive integer.
fn positive(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    let v = flag_value(args, i, flag)?;
    v.parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("invalid {flag} value '{v}': expected a positive integer"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Cli, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_experiment_and_flags() {
        let cli = p(&["fig3", "--native", "--threads", "1,2,8", "--reps", "5"]).unwrap();
        assert_eq!(cli.experiment, "fig3");
        assert!(cli.common.native);
        assert_eq!(cli.common.cfg.threads, vec![1, 2, 8]);
        assert_eq!(cli.common.cfg.reps, 5);
        assert!(cli.common.trace.is_none());
    }

    #[test]
    fn parses_trace_path_and_profile_kernel() {
        let cli = p(&["profile", "fib", "--trace", "/tmp/out.json"]).unwrap();
        assert_eq!(cli.experiment, "profile");
        assert_eq!(cli.kernel.as_deref(), Some("fib"));
        assert_eq!(
            cli.common.trace.as_deref(),
            Some(std::path::Path::new("/tmp/out.json"))
        );
    }

    #[test]
    fn parses_json_out_and_pin() {
        let cli = p(&["figures", "--native", "--json-out", "BENCH_2.json", "--pin"]).unwrap();
        assert_eq!(
            cli.common.json_out.as_deref(),
            Some(std::path::Path::new("BENCH_2.json"))
        );
        assert!(cli.common.pin);
        assert!(p(&["figures", "--json-out"])
            .unwrap_err()
            .contains("requires a value"));
        let plain = p(&["figures"]).unwrap();
        assert!(plain.common.json_out.is_none() && !plain.common.pin);
    }

    #[test]
    fn parses_kernel_variant() {
        use tpm_core::KernelVariant;
        let cli = p(&["figures", "--native", "--kernel-variant", "optimized"]).unwrap();
        assert_eq!(cli.common.cfg.variant, KernelVariant::Optimized);
        let cli = p(&["figures", "--kernel-variant", "reference"]).unwrap();
        assert_eq!(cli.common.cfg.variant, KernelVariant::Reference);
        assert_eq!(
            p(&["figures"]).unwrap().common.cfg.variant,
            KernelVariant::Reference
        );
        assert!(p(&["figures", "--kernel-variant", "simd"])
            .unwrap_err()
            .contains("--kernel-variant"));
        assert!(p(&["figures", "--kernel-variant"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn parses_service_flags_for_serve_and_loadgen() {
        let cli = p(&[
            "serve",
            "--addr",
            "127.0.0.1:9000",
            "--workers",
            "3",
            "--queue",
            "8",
            "--max-threads",
            "4",
        ])
        .unwrap();
        assert_eq!(cli.experiment, "serve");
        assert_eq!(cli.service.addr, "127.0.0.1:9000");
        assert_eq!(cli.service.workers, 3);
        assert_eq!(cli.service.queue, 8);
        assert_eq!(cli.service.max_threads, 4);

        let cli = p(&[
            "loadgen",
            "matmul",
            "--clients",
            "2",
            "--requests",
            "7",
            "--size",
            "128",
            "--model",
            "cilk_for",
            "--deadline-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(cli.kernel.as_deref(), Some("matmul"));
        assert_eq!(cli.service.clients, 2);
        assert_eq!(cli.service.requests, 7);
        assert_eq!(cli.service.size, 128);
        assert_eq!(cli.service.model, Model::CilkFor);
        assert_eq!(cli.service.deadline_ms, Some(250));
    }

    #[test]
    fn model_selection_accepts_all_and_comma_lists() {
        let cli = p(&["figures", "--model", "all"]).unwrap();
        assert_eq!(cli.common.cfg.models, Model::ALL.to_vec());

        let cli = p(&["figures", "--model", "omp_for, actor_for"]).unwrap();
        assert_eq!(cli.common.cfg.models, vec![Model::OmpFor, Model::ActorFor]);
        // loadgen reads one model: the first of the selection.
        assert_eq!(cli.service.model, Model::OmpFor);

        // Error text is registry-derived: a new family's names show up
        // without touching the parser.
        let err = p(&["figures", "--model", "omp_for,frob"]).unwrap_err();
        assert!(
            err.contains("--model") && err.contains("actor_task"),
            "{err}"
        );
        assert!(p(&["figures", "--model", ","]).is_err());
    }

    #[test]
    fn service_defaults_and_malformed_values() {
        let cli = p(&["serve"]).unwrap();
        assert_eq!(cli.service.addr, "127.0.0.1:7171");
        assert_eq!(cli.service.workers, 2);
        assert_eq!(cli.service.deadline_ms, None);
        assert!(p(&["loadgen", "--model", "pthread"])
            .unwrap_err()
            .contains("--model"));
        assert!(p(&["loadgen", "--clients", "0"])
            .unwrap_err()
            .contains("--clients"));
        assert!(p(&["serve", "--workers"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn parses_metrics_flags() {
        let cli = p(&[
            "top",
            "--interval-ms",
            "200",
            "--frames",
            "3",
            "--job-threads",
            "2",
            "--metrics-out",
            "final.json",
        ])
        .unwrap();
        assert_eq!(cli.experiment, "top");
        assert_eq!(cli.service.interval_ms, 200);
        assert_eq!(cli.service.frames, Some(3));
        assert_eq!(cli.service.job_threads, 2);
        assert_eq!(
            cli.service.metrics_out.as_deref(),
            Some(std::path::Path::new("final.json"))
        );
        let plain = p(&["serve"]).unwrap();
        assert_eq!(plain.service.interval_ms, 1000);
        assert_eq!(plain.service.frames, None);
        assert_eq!(plain.service.job_threads, 1);
        assert!(plain.service.metrics_out.is_none());
        assert!(p(&["top", "--frames", "0"]).is_err());
        assert!(p(&["top", "--interval-ms"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn parses_wire_protocol_flags() {
        use tpm_serve::Protocol;
        let cli = p(&[
            "loadgen",
            "--connections",
            "256",
            "--protocol",
            "binary",
            "--window",
            "16",
        ])
        .unwrap();
        assert_eq!(cli.service.clients, 256, "--connections aliases --clients");
        assert_eq!(cli.service.protocol, Protocol::Binary);
        assert_eq!(cli.service.window, 16);

        let plain = p(&["serve"]).unwrap();
        assert_eq!(plain.service.protocol, Protocol::Json);
        assert_eq!(plain.service.window, 1);
    }

    #[test]
    fn malformed_wire_protocol_flags_are_errors() {
        let err = p(&["loadgen", "--protocol", "grpc"]).unwrap_err();
        assert!(
            err.contains("--protocol") && err.contains("json|binary"),
            "{err}"
        );
        // The server has one data path and one reply-buffer policy: the
        // switches that used to select others are unknown flags now.
        for gone in ["--data-path", "--arena"] {
            let err = p(&["serve", gone, "on"]).unwrap_err();
            assert!(err.contains("unknown flag") && err.contains(gone), "{err}");
        }
        let err = p(&["loadgen", "--connections", "0"]).unwrap_err();
        assert!(err.contains("--connections"), "{err}");
        assert!(p(&["loadgen", "--window", "none"]).is_err());
        assert!(p(&["loadgen", "--protocol"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn parses_fault_plan_path() {
        let cli = p(&["chaos", "--fault-plan", "plan.json"]).unwrap();
        assert_eq!(cli.experiment, "chaos");
        assert_eq!(
            cli.common.fault_plan.as_deref(),
            Some(std::path::Path::new("plan.json"))
        );
        assert!(p(&["chaos"]).unwrap().common.fault_plan.is_none());
        assert!(p(&["chaos", "--fault-plan"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn malformed_threads_is_an_error_not_a_panic() {
        let err = p(&["fig1", "--threads", "1,x,4"]).unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        assert!(err.contains('x'), "{err}");
        assert!(p(&["fig1", "--threads", "0"]).is_err());
        assert!(p(&["fig1", "--threads", ""]).is_err());
    }

    #[test]
    fn malformed_reps_and_scale_are_errors() {
        assert!(p(&["fig1", "--reps", "zero"])
            .unwrap_err()
            .contains("--reps"));
        assert!(p(&["fig1", "--reps", "0"]).is_err());
        assert!(p(&["fig1", "--scale", "-3"])
            .unwrap_err()
            .contains("--scale"));
    }

    #[test]
    fn missing_flag_values_are_errors() {
        assert!(p(&["fig1", "--threads"])
            .unwrap_err()
            .contains("requires a value"));
        assert!(p(&["fig1", "--trace"])
            .unwrap_err()
            .contains("requires a value"));
        // A following flag is not a value.
        assert!(p(&["fig1", "--reps", "--native"])
            .unwrap_err()
            .contains("requires a value"));
    }

    #[test]
    fn parses_desim_flags() {
        let cli = p(&[
            "desim", "--seed", "77", "--seeds", "250", "--gap-us", "1000", "--bug", "lose-job",
        ])
        .unwrap();
        assert_eq!(cli.experiment, "desim");
        assert_eq!(cli.service.seed, 77);
        assert_eq!(cli.service.seeds, 250);
        assert_eq!(cli.service.gap_us, 1000);
        assert_eq!(cli.service.bug.as_deref(), Some("lose-job"));
        assert!(!cli.service.until_failure && !cli.service.replay);

        let cli = p(&["desim", "--until-failure"]).unwrap();
        assert!(cli.service.until_failure);
        let cli = p(&["desim", "--seed", "9", "--replay"]).unwrap();
        assert!(cli.service.replay);
        assert_eq!(cli.service.seed, 9);

        // Defaults.
        let cli = p(&["desim"]).unwrap();
        assert_eq!(cli.service.seed, 1);
        assert_eq!(cli.service.seeds, 1);
        assert_eq!(cli.service.gap_us, 500);
        assert!(cli.service.bug.is_none());

        assert!(p(&["desim", "--seed", "two"])
            .unwrap_err()
            .contains("--seed"));
        assert!(p(&["desim", "--seeds", "0"]).is_err());
        assert!(p(&["desim", "--bug", "off-by-one"])
            .unwrap_err()
            .contains("lose-job|watchdog-gate"));
    }

    #[test]
    fn unknown_flags_and_extra_positionals_are_errors() {
        assert!(p(&["fig1", "--frobnicate"])
            .unwrap_err()
            .contains("--frobnicate"));
        assert!(p(&["fig1", "a", "b"])
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(p(&[]).unwrap_err().contains("missing experiment"));
    }
}
