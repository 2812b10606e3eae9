//! `serve-debug`: one closed-loop client debugging sha512 sessions
//! through `vpdift_serve::Connection::handle_line`, the transport-free
//! core of `taintvp-run serve`.
//!
//! Each session: `create` (the ELF as `elf-hex:`, a text policy
//! classifying the SHA-512 constant table), a sink watch on `uart.tx`, a
//! PC breakpoint at a seeded label, `run` to it, inspect registers and
//! tags, single-step, drop the breakpoint, then alternate seeded-budget
//! `run`s with tag reads, and finish with `explain`, `info`, `destroy`.
//! The final `info` digest must equal a batch `Soc::run` of the same ELF,
//! policy and step count, computed before any round starts.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vpdift_core::EnforceMode;
use vpdift_loader::Elf32;
use vpdift_obs::Metrics;
use vpdift_rv32::Tainted;
use vpdift_serve::json::{self, Value};
use vpdift_serve::{Connection, Control, Registry};
use vpdift_soc::{ExecConfig, Soc, SocBuilder, SocExit};

use crate::layers::{self, CountSink, Counted};
use crate::trace::Tracer;
use crate::{stats, Bench, Checks, Rng, Round, Size};

/// RAM given to every session: room for the image and its buffers.
const RAM_SIZE: usize = 256 * 1024;
/// Labels a breakpoint may land on (all inside the hash's loops).
const BREAK_LABELS: [&str; 4] = ["block_loop", "winit", "wext", "round"];
/// Per timed serve verb: its span and its p50 / p99 metric names
/// (`serve.unbreak` only counts toward the request totals).
const VERB_METRICS: [(&str, &str, &str); 9] = [
    ("serve.create", "serve.create.p50_us", "serve.create.p99_us"),
    ("serve.watch", "serve.watch.p50_us", "serve.watch.p99_us"),
    ("serve.break", "serve.break.p50_us", "serve.break.p99_us"),
    ("serve.run", "serve.run.p50_us", "serve.run.p99_us"),
    ("serve.step", "serve.step.p50_us", "serve.step.p99_us"),
    ("serve.read", "serve.read.p50_us", "serve.read.p99_us"),
    ("serve.explain", "serve.explain.p50_us", "serve.explain.p99_us"),
    ("serve.info", "serve.info.p50_us", "serve.info.p99_us"),
    ("serve.destroy", "serve.destroy.p50_us", "serve.destroy.p99_us"),
];

struct Sizes {
    blocks: u32,
    plans: usize,
    steps: usize,
    runs: usize,
    budget: (u64, u64),
}

/// One session's script and its expected end state.
struct Plan {
    break_pc: u32,
    steps_to_break: u64,
    budgets: Vec<u64>,
    /// Retired instructions after the whole script (no traps occur).
    total: u64,
    /// `info`'s digest field as the batch reference renders it.
    digest: String,
    metrics: Metrics,
    checks: u64,
}

pub(crate) struct ServeDebug {
    seed: u64,
    sizes: Sizes,
    elf: Vec<u8>,
    ktab: u32,
    create: String,
    exec: ExecConfig,
    plans: Vec<Plan>,
    conn: Connection,
    next_req: u64,
    /// Request lines of one traced session, and whether the current
    /// session is collecting them.
    sample: Vec<String>,
    sampling: bool,
}

impl ServeDebug {
    pub(crate) fn new(size: Size, seed: u64) -> ServeDebug {
        let sizes = match size {
            Size::Committed => {
                Sizes { blocks: 64, plans: 8, steps: 8, runs: 20, budget: (5_000, 20_000) }
            }
            Size::Tiny => Sizes { blocks: 2, plans: 2, steps: 2, runs: 2, budget: (200, 500) },
        };
        let program = vpdift_firmware::sha512::build(sizes.blocks).program;
        let ktab = program.symbol("ktab").expect("sha512 has a ktab label");
        let policy =
            format!("policy bench-serve\natom K\nclassify {ktab:#x} +640 K\nsink uart.tx public\n");
        let elf = program.to_elf();
        let hex: String = elf.iter().map(|b| format!("{b:02x}")).collect();
        let create = format!(
            "{{\"cmd\":\"create\",\"session\":\"bench\",\"program\":\"elf-hex:{hex}\",\"policy\":\"{}\",\"enforce\":\"record\",\"ram_size\":{RAM_SIZE}}}",
            vpdift_obs::export::escape(&policy)
        );
        let exec = ExecConfig {
            policy: Some(policy),
            enforce: EnforceMode::Record,
            ram_size: Some(RAM_SIZE),
            ..ExecConfig::default()
        };
        // The seed arranges a fixed mix, so every seed does the same work:
        // each break label serves the same number of plans, and every plan
        // runs the same evenly spaced budgets in its own order.
        let mut rng = Rng::new(seed, u64::MAX);
        let mut labels: Vec<&str> =
            (0..sizes.plans).map(|p| BREAK_LABELS[p % BREAK_LABELS.len()]).collect();
        rng.shuffle(&mut labels);
        let (lo, hi) = sizes.budget;
        let spaced: Vec<u64> =
            (0..sizes.runs as u64).map(|k| lo + (hi - lo) * k / (sizes.runs as u64 - 1)).collect();
        let plans = labels
            .into_iter()
            .map(|label| {
                let mut budgets = spaced.clone();
                rng.shuffle(&mut budgets);
                Plan {
                    break_pc: program.symbol(label).expect("sha512 has its loop labels"),
                    steps_to_break: 0,
                    budgets,
                    total: 0,
                    digest: String::new(),
                    metrics: Metrics::default(),
                    checks: 0,
                }
            })
            .collect();
        ServeDebug {
            seed,
            sizes,
            elf,
            ktab,
            create,
            exec,
            plans,
            conn: Connection::new(Arc::new(Registry::new())),
            next_req: 0,
            sample: Vec::new(),
            sampling: false,
        }
    }

    /// A fresh SoC configured as serve configures a session, booted from
    /// the ELF.
    fn boot<S: Counted>(&self, checks: &mut Checks) -> Option<Soc<Tainted, S>> {
        let cfg = match SocBuilder::from_exec_config(&self.exec) {
            Ok(b) => b.sensor_thread(false).build(),
            Err(e) => {
                checks.check(false, || format!("session exec config rejected: {e}"));
                return None;
            }
        };
        let mut soc = Soc::<Tainted, S>::new(cfg);
        let loaded = Elf32::parse(&self.elf)
            .map_err(|e| e.to_string())
            .and_then(|elf| soc.load_elf(&elf).map_err(|e| e.to_string()));
        checks.check(loaded.is_ok(), || format!("reference ELF load failed: {loaded:?}"));
        loaded.ok().map(|()| soc)
    }

    /// The batch reference for `plan`: steps to the breakpoint (counted
    /// one step at a time on a fresh SoC), then one `Soc::run` of the
    /// whole script's step count on a counting sink.
    fn reference(&self, plan: &mut Plan, tracer: &mut Tracer, checks: &mut Checks) {
        let Some(mut soc) = self.boot::<vpdift_obs::NullSink>(checks) else { return };
        let limit = plan.budgets.iter().sum::<u64>() * 4 + 1_000_000;
        while soc.cpu().pc() != plan.break_pc && plan.steps_to_break < limit {
            soc.run(1);
            plan.steps_to_break += 1;
        }
        checks.check(soc.cpu().pc() == plan.break_pc, || {
            format!("breakpoint {:#x} never reached", plan.break_pc)
        });
        plan.total =
            plan.steps_to_break + self.sizes.steps as u64 + plan.budgets.iter().sum::<u64>();

        let Some(mut soc) = self.boot::<CountSink>(checks) else { return };
        let exit = soc.run(plan.total);
        checks.check(exit == SocExit::InstrLimit && soc.instret() == plan.total, || {
            format!("reference run ended {exit:?} after {} of {} steps", soc.instret(), plan.total)
        });
        for _ in 0..5 {
            let (d, _) = tracer.time("soc.digest", 0, || soc.state_digest());
            plan.digest = format!("{d:#018x}");
        }
        plan.metrics = soc.obs().borrow_mut().take_metrics();
        plan.checks = soc.engine().borrow().stats().checks;
    }

    /// Sends one request, timed as span `span`; returns the parsed reply
    /// (`None` when it was not `"ok":true`) and counts streamed `"ev"`
    /// lines.
    fn request(
        &mut self,
        span: &'static str,
        line: &str,
        round: &mut Round,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) -> Option<Value> {
        if self.sampling {
            self.sample.push(line.to_owned());
        }
        let req = self.next_req;
        self.next_req += 1;
        let mut lines: Vec<String> = Vec::new();
        let (control, latency) = tracer.time(span, req, || {
            self.conn.handle_line(line, &mut |s: &str| {
                lines.push(s.to_owned());
                Ok(())
            })
        });
        round.ops += 1;
        if span == "serve.create" {
            round.setup.push(latency);
        }
        round.counts.ev_lines += lines.len().saturating_sub(1) as u64;
        let reply = lines.last().and_then(|l| json::parse(l).ok());
        let ok = matches!(control, Ok(Control::Continue))
            && reply.as_ref().and_then(|r| r.get("ok")).and_then(Value::as_bool) == Some(true);
        checks.check(ok, || format!("{span} failed: {:?}", lines.last()));
        reply.filter(|_| ok)
    }

    /// Runs one session of `plan`.
    fn session(&mut self, p: usize, round: &mut Round, tracer: &mut Tracer, checks: &mut Checks) {
        let line =
            |cmd: &str, args: &str| format!("{{\"cmd\":\"{cmd}\",\"session\":\"bench\"{args}}}");
        let get =
            |reply: &Option<Value>, key: &str| reply.as_ref().and_then(|r| r.get(key)).cloned();
        let (break_pc, steps_to_break) = (self.plans[p].break_pc, self.plans[p].steps_to_break);
        let tags = line("read", &format!(",\"what\":\"tags\",\"addr\":{},\"len\":64", self.ktab));

        let create = std::mem::take(&mut self.create);
        self.request("serve.create", &create, round, tracer, checks);
        self.create = create;
        let watch = line("watch", ",\"kind\":\"sink\",\"site\":\"uart.tx\"");
        self.request("serve.watch", &watch, round, tracer, checks);
        let set = line("break", &format!(",\"pc\":{break_pc}"));
        let id = get(&self.request("serve.break", &set, round, tracer, checks), "break");

        let first = self.request("serve.run", &line("run", ""), round, tracer, checks);
        let stopped = get(&first, "exit").as_ref().and_then(Value::as_str) == Some("stopped")
            && get(&first, "instret").as_ref().and_then(Value::as_u64) == Some(steps_to_break);
        checks.check(stopped, || {
            format!("first run did not stop at the breakpoint after {steps_to_break} steps")
        });
        let regs =
            self.request("serve.read", &line("read", ",\"what\":\"regs\""), round, tracer, checks);
        let pc = get(&regs, "pc").as_ref().and_then(Value::as_u64);
        checks.check(pc == Some(u64::from(break_pc)), || {
            format!("paused at {pc:?}, breakpoint at {break_pc:#x}")
        });
        self.request("serve.read", &tags, round, tracer, checks);
        for _ in 0..self.sizes.steps {
            self.request("serve.step", &line("step", ""), round, tracer, checks);
        }
        let id = id.as_ref().and_then(Value::as_u64).unwrap_or(u64::MAX);
        self.request(
            "serve.unbreak",
            &line("unbreak", &format!(",\"break\":{id}")),
            round,
            tracer,
            checks,
        );

        for k in 0..self.plans[p].budgets.len() {
            let budget = self.plans[p].budgets[k];
            let run = line("run", &format!(",\"max_steps\":{budget}"));
            let exit = get(&self.request("serve.run", &run, round, tracer, checks), "exit");
            checks.check(exit.as_ref().and_then(Value::as_str) == Some("instr_limit"), || {
                format!("run of {budget} steps exited {exit:?}")
            });
            self.request("serve.read", &tags, round, tracer, checks);
        }
        self.request("serve.explain", &line("explain", ",\"atom\":\"K\""), round, tracer, checks);

        let info = self.request("serve.info", &line("info", ""), round, tracer, checks);
        let instret = get(&info, "instret").as_ref().and_then(Value::as_u64);
        let digest = get(&info, "digest");
        let plan = &self.plans[p];
        checks.check(
            instret == Some(plan.total)
                && digest.as_ref().and_then(Value::as_str) == Some(&plan.digest),
            || {
                format!(
                    "session ended at instret {instret:?} digest {digest:?}; batch reference {} {}",
                    plan.total, plan.digest
                )
            },
        );
        round.insns += instret.unwrap_or(0);
        round.counts.instret += instret.unwrap_or(0);
        round.counts.sim_ps += get(&info, "t_ps").as_ref().and_then(Value::as_u64).unwrap_or(0);
        self.request("serve.destroy", &line("destroy", ""), round, tracer, checks);
    }
}

impl Bench for ServeDebug {
    fn prepare(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Vec<f64> {
        let mut plans = std::mem::take(&mut self.plans);
        for plan in &mut plans {
            self.reference(plan, tracer, checks);
        }
        self.plans = plans;
        Vec::new()
    }

    fn round(&mut self, index: u64, tracer: &mut Tracer, checks: &mut Checks) -> Round {
        let mut round = Round::default();
        let mut order: Vec<usize> = (0..self.plans.len()).collect();
        Rng::new(self.seed, index).shuffle(&mut order);
        for p in order {
            // Keep the request lines of the first traced session for the
            // parser timings taken after the rounds.
            self.sampling = tracer.recording() && self.sample.is_empty();
            let open = tracer.begin("bench.session", index);
            self.session(p, &mut round, tracer, checks);
            tracer.end(open);
            self.sampling = false;
        }
        let runs = (self.plans.len() * (1 + self.sizes.steps + self.sizes.runs)) as f64;
        round.layer = vec![("obs.ev_lines_per_run", round.counts.ev_lines as f64 / runs)];
        round
    }

    fn layers(
        &mut self,
        _traced: &[Round],
        tracer: &Tracer,
        _checks: &mut Checks,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        for (span, p50, p99) in VERB_METRICS {
            for (name, q) in [(p50, 0.5), (p99, 0.99)] {
                if let Some(v) = layers::span_quantile(tracer, span, q, 1e6) {
                    out.insert(name, v);
                }
            }
        }
        let requests: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("serve."))
            .map(crate::trace::Span::secs)
            .collect();
        out.insert("serve.req_p50_us", stats::quantile(&requests, 0.5) * 1e6);
        out.insert("serve.req_p99_us", stats::quantile(&requests, 0.99) * 1e6);
        if let Some(v) = layers::span_quantile(tracer, "soc.digest", 0.5, 1e3) {
            out.insert("soc.digest_ms", v);
        }
        // Parser and loader cost on their own, timed after the rounds so
        // the traced rounds do exactly the untraced rounds' work.
        let time_us = |f: &dyn Fn()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        };
        let parse: Vec<f64> =
            self.sample.iter().map(|l| time_us(&|| drop(black_box(json::parse(l))))).collect();
        out.insert("serve.json_parse_us", stats::median(&parse));
        out.insert(
            "serve.json_parse_create_us",
            time_us(&|| drop(black_box(json::parse(&self.create)))),
        );
        let elf: Vec<f64> =
            (0..16).map(|_| time_us(&|| drop(black_box(Elf32::parse(&self.elf))))).collect();
        out.insert("loader.parse_us", stats::median(&elf));
        // The batch references are this workload's counts pass: one
        // round runs every plan once.
        let mut metrics = Metrics::default();
        for plan in &self.plans {
            layers::add_metrics(&mut metrics, &plan.metrics);
        }
        layers::obs_values(&metrics, out);
        out.insert("core.checks", self.plans.iter().map(|p| p.checks).sum::<u64>() as f64);
    }
}
