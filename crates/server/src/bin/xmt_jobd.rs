//! `xmt_jobd` — the job service as a process.
//!
//! ```text
//! xmt_jobd serve  [--addr A] [--journal PATH] [--workers N] [--quantum N]
//!                 [--cache-dir DIR] [--cache-entries N] [--max-queued N]
//!                 [--quota-burst CYCLES --quota-refill CYCLES_PER_SEC]
//! xmt_jobd submit --addr A NAME [--tenant T] [--high] [--token N] [--wait]
//! xmt_jobd wait   --addr A ID [--timeout-ms N]
//! xmt_jobd stats  --addr A
//! ```
//!
//! `submit --wait` prints the result as well. For a key the server
//! holds cached, that costs one round trip: the result comes back in
//! the submit acknowledgement, and the wait sends nothing.
//!
//! The server keeps every unfinished job and the newest 4 096 finished
//! ones. An older finished job is retired: `wait` on its id fails with
//! the server's `UnknownJob`, and a reused `--token` of it admits a new
//! job. `stats` prints how many jobs were retired.
//!
//! `serve` prints `listening on <addr>` on stdout once bound (port 0
//! resolves, so scripts can scrape the line) and runs until killed —
//! there is deliberately no clean-shutdown path beyond the journal:
//! killing the process and restarting on the same `--journal` is the
//! supported (and tested) way down, per the crash-safety contract.
//! The client subcommands speak the framed TCP protocol of
//! `xmt_server::net` through `xmt_server::Client`.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use xmt_server::{
    Client, ClientConfig, Lane, NetServer, QuotaPolicy, Server, ServerConfig, SimRequest,
    Submission,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: xmt_jobd serve  [--addr A] [--journal PATH] [--workers N] [--quantum N]\n\
         \u{20}                [--cache-dir DIR] [--cache-entries N] [--max-queued N]\n\
         \u{20}                [--quota-burst CYCLES --quota-refill CYCLES_PER_SEC]\n\
         \u{20}      xmt_jobd submit --addr A NAME [--tenant T] [--high] [--token N] [--wait]\n\
         \u{20}                (--wait on a cached key is one round trip: the result\n\
         \u{20}                 comes with the acknowledgement)\n\
         \u{20}      xmt_jobd wait   --addr A ID [--timeout-ms N]\n\
         \u{20}                (the newest 4096 finished jobs are kept: an older\n\
         \u{20}                 id answers UnknownJob)\n\
         \u{20}      xmt_jobd stats  --addr A"
    );
    ExitCode::from(2)
}

/// Pull `--flag VALUE` out of `args`, parsing with `parse`.
fn take_opt<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            parse(&v)
                .map(Some)
                .ok_or(format!("bad value for {flag}: {v}"))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

/// Pull a bare `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    s.replace('_', "").parse().ok()
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return Err("missing subcommand".into());
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "serve" => serve(args),
        "submit" => submit(args),
        "wait" => wait(args),
        "stats" => stats(args),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn serve(mut args: Vec<String>) -> Result<(), String> {
    let addr = take_opt(&mut args, "--addr", |s| Some(s.to_string()))?
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let mut cfg = ServerConfig::default();
    if let Some(p) = take_opt(&mut args, "--journal", |s| Some(s.into()))? {
        cfg.journal = Some(p);
    }
    if let Some(d) = take_opt(&mut args, "--cache-dir", |s| Some(s.into()))? {
        cfg.cache_dir = Some(d);
    }
    if let Some(n) = take_opt(&mut args, "--workers", |s| s.parse().ok())? {
        cfg.workers = n;
    }
    if let Some(n) = take_opt(&mut args, "--quantum", parse_u64)? {
        cfg.quantum = n;
    }
    if let Some(n) = take_opt(&mut args, "--cache-entries", |s| s.parse().ok())? {
        cfg.cache_entries = n;
    }
    if let Some(n) = take_opt(&mut args, "--max-queued", |s| s.parse().ok())? {
        cfg.max_queued = n;
    }
    let burst = take_opt(&mut args, "--quota-burst", parse_u64)?;
    let refill = take_opt(&mut args, "--quota-refill", parse_u64)?;
    cfg.quota = match (burst, refill) {
        (None, None) => None,
        (b, r) => Some(QuotaPolicy {
            burst_cycles: b.ok_or("--quota-refill without --quota-burst")?,
            refill_cycles_per_sec: r.ok_or("--quota-burst without --quota-refill")?,
        }),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let server = Arc::new(Server::start(cfg).map_err(|e| format!("server start: {e}"))?);
    let net =
        NetServer::bind(Arc::clone(&server), &addr).map_err(|e| format!("bind {addr}: {e}"))?;
    // Scripts scrape this line for the resolved port; flush before
    // parking so a pipe reader is never left waiting.
    println!("listening on {}", net.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

fn client_for(args: &mut Vec<String>) -> Result<Client, String> {
    let addr = take_opt(args, "--addr", |s| Some(s.to_string()))?
        .ok_or("--addr is required for client subcommands")?;
    Client::connect(&addr, ClientConfig::default()).map_err(|e| format!("connect {addr}: {e}"))
}

fn submit(mut args: Vec<String>) -> Result<(), String> {
    let tenant = take_opt(&mut args, "--tenant", |s| Some(s.to_string()))?;
    let token = take_opt(&mut args, "--token", parse_u64)?;
    let high = take_switch(&mut args, "--high");
    let do_wait = take_switch(&mut args, "--wait");
    let mut c = client_for(&mut args)?;
    let [name] = args.as_slice() else {
        return Err("submit takes exactly one golden workload name".into());
    };
    let req = SimRequest::golden(name)?;
    let mut sub = Submission::new(req);
    if let Some(t) = tenant {
        sub = sub.tenant(&t);
    }
    if let Some(t) = token {
        sub = sub.token(t);
    }
    if high {
        sub = sub.lane(Lane::High);
    }
    let id = c.submit(sub).map_err(|e| format!("submit: {e}"))?;
    println!("job {id}");
    if do_wait {
        print_result(&mut c, id, Duration::from_secs(600))?;
    }
    Ok(())
}

fn wait(mut args: Vec<String>) -> Result<(), String> {
    let timeout = take_opt(&mut args, "--timeout-ms", parse_u64)?
        .map_or(Duration::from_secs(600), Duration::from_millis);
    let mut c = client_for(&mut args)?;
    let [id] = args.as_slice() else {
        return Err("wait takes exactly one job id".into());
    };
    let id = parse_u64(id).ok_or_else(|| format!("bad job id '{id}'"))?;
    print_result(&mut c, id, timeout)
}

fn print_result(c: &mut Client, id: u64, timeout: Duration) -> Result<(), String> {
    let r = c.wait(id, timeout).map_err(|e| format!("wait {id}: {e}"))?;
    println!(
        "job {id}: {} cycles={} slices={} from_cache={} report_bytes={}",
        if r.completed { "done" } else { "failed" },
        r.report.stats.cycles,
        r.slices,
        r.from_cache,
        r.bytes.len(),
    );
    Ok(())
}

fn stats(mut args: Vec<String>) -> Result<(), String> {
    let mut c = client_for(&mut args)?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let s = c.stats().map_err(|e| format!("stats: {e}"))?;
    println!(
        "submitted={} completed={} failed={} cancelled={} queued={} retired={}",
        s.server.submitted,
        s.server.completed,
        s.server.failed,
        s.server.cancelled,
        s.server.queued,
        s.server.retired
    );
    println!(
        "deduped={} tokens_reused={} shed_overload={} shed_quota={} journal_bytes={} \
         programs_digested={} idle_wakeups={}",
        s.server.deduped,
        s.server.tokens_reused,
        s.server.rejected_overload,
        s.server.rejected_quota,
        s.server.journal_bytes,
        s.server.programs_digested,
        s.server.idle_wakeups
    );
    println!(
        "cache: entries={} hits={} disk_hits={} misses={} evictions={}",
        s.cache.entries, s.cache.hits, s.cache.disk_hits, s.cache.misses, s.cache.evictions
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if e == "missing subcommand" {
                return usage();
            }
            eprintln!("xmt_jobd: {e}");
            ExitCode::FAILURE
        }
    }
}
