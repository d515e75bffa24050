/**
 * @file
 * vip_sim: the command-line front-end of the simulator.
 *
 * Runs one (workload, configuration) pair with every knob exposed as
 * a flag and emits the results as a human-readable report, an
 * optional full stats dump, and an optional per-frame CSV trace.
 *
 *   vip_sim --workload W4 --config vip --seconds 0.5
 *   vip_sim --workload A5 --config baseline --ideal-memory
 *   vip_sim --workload W7 --config iptoip-fb --frame-csv out.csv
 *   vip_sim --workload W4 --config vip --trace-out run.json \
 *           --trace ip,frame,sched --metrics-out run.csv
 *   vip_sim --list
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/simulation.hh"
#include "fleet/transport/artifact.hh"
#include "obs/provenance.hh"

namespace
{

/**
 * SIGINT/SIGTERM land here; the simulation polls the flag between
 * events and stops gracefully at the first quiescent point — final
 * checkpoint written, metrics rows already flushed, stats dumped on
 * the way out — so an interrupted run (or a fleet-killed worker)
 * always leaves a resumable trail.  main() exits 128+signal.
 */
std::atomic<int> gSignal{0};

extern "C" void
onSignal(int sig)
{
    gSignal.store(sig, std::memory_order_relaxed);
}

void
usage()
{
    std::printf(
        "usage: vip_sim [options]\n"
        "  --workload <A1..A7|W1..W8>   workload (default W4)\n"
        "  --config <name>              baseline | frameburst |\n"
        "                               iptoip | iptoip-fb | vip\n"
        "  --seconds <s>                simulated time (default 0.4)\n"
        "  --seed <n>                   RNG seed (default 1)\n"
        "  --burst <frames>             default burst size\n"
        "  --lanes <n>                  VIP buffer lanes per IP\n"
        "  --sched <fifo|rr|edf>        VIP hardware scheduler\n"
        "  --lane-bytes <n>             per-lane buffer bytes\n"
        "  --deadline <periods>         QoS deadline in frame periods\n"
        "  --ideal-memory               zero-latency DRAM (Fig 3)\n"
        "  --no-lowpower                disable DRAM sleep states\n"
        "  --dvfs                       ondemand CPU governor\n"
        "  --vsync                      judge QoS at vsync boundaries\n"
        "  --spill                      overflow full lanes to DRAM\n"
        "  --overload-policy <p>        reject | degrade | besteffort\n"
        "                               (admission control at open())\n"
        "  --admission-headroom <f>     IP capacity fraction admission\n"
        "                               keeps free (default 0.05)\n"
        "  --shed-after <frames>        degrade: shed a frame after N\n"
        "                               consecutive late frames\n"
        "  --fault-plan <spec>          fault plan: a preset name\n"
        "                               (none|light|moderate|heavy) or\n"
        "                               key=value pairs, e.g.\n"
        "                               hang=0.01,corrupt=0.01,seed=7\n"
        "  --fault-hang <p>             engine hang probability/unit\n"
        "  --fault-corrupt <p>          sub-frame corruption prob.\n"
        "  --fault-xfer <p>             SA transfer error probability\n"
        "  --fault-ecc <p>              correctable ECC prob./burst\n"
        "  --fault-ecc-fatal <p>        uncorrectable ECC probability\n"
        "  --fault-seed <n>             fault RNG seed (default 1)\n"
        "  --fault-watchdog-us <us>     IP watchdog timeout (0 = off)\n"
        "  --fault-retries <n>          per-unit retry budget\n"
        "  --guard-ms <ms>              no-progress guard interval\n"
        "                               (default 250, 0 disables)\n"
        "  --audit <mode>               invariant audits: off | final |\n"
        "                               periodic[:<ms>] | strict\n"
        "                               (default off)\n"
        "  --digest-out <file>          write the audit digest stream\n"
        "                               (for vip_diverge; implies\n"
        "                               --audit periodic:1 if off)\n"
        "  --stats                      dump component statistics\n"
        "  --frame-csv <file>           write the per-frame CSV trace\n"
        "  --trace-out <file>           write a Chrome/Perfetto\n"
        "                               trace_event JSON of the run\n"
        "  --trace <cat,...>            categories to record: ip,\n"
        "                               frame, sa, dram, cpu, sched,\n"
        "                               fault, power (default all)\n"
        "  --trace-buffer <events>      trace ring capacity\n"
        "                               (default 524288, drop-oldest)\n"
        "  --metrics-out <file>         periodic metrics CSV\n"
        "                               (streamed row-by-row; survives\n"
        "                               a killed run)\n"
        "  --metrics-interval-ms <ms>   sampling period (default 1)\n"
        "  --stats-out <file>           write every registered counter\n"
        "                               as self-describing JSON (the\n"
        "                               format vip_stats_diff reads)\n"
        "  --prof[=<file>]              profile the event-loop hot\n"
        "                               path (per-kind dispatch wall\n"
        "                               time, queue pressure) and\n"
        "                               write prof.json (or <file>);\n"
        "                               digest-neutral, <5%% overhead\n"
        "  --prof-sample-every <n>      steady_clock sampling stride\n"
        "                               (default 64)\n"
        "  --ts[=<glob>]                sample glob-selected stats at\n"
        "                               the metrics cadence into a\n"
        "                               bounded decimating series ring\n"
        "                               and run the steady-state\n"
        "                               detector (default glob *);\n"
        "                               digest-neutral\n"
        "  --ts-out <file>              write the sampled series plus\n"
        "                               derived rates/EWMA/min/max as\n"
        "                               self-describing JSON (the\n"
        "                               format vip_top renders);\n"
        "                               implies --ts\n"
        "  --checkpoint-on-steady[=<f>] write a one-shot snapshot at\n"
        "                               the first quiescent point\n"
        "                               after steady state is detected\n"
        "                               (default steady.vips; implies\n"
        "                               --ts); the warm-start seed for\n"
        "                               --restore\n"
        "  --postmortem-dir <dir>       on a fatal error write a crash\n"
        "                               bundle (crash.json, stats.json,\n"
        "                               trace-tail.json) there; also\n"
        "                               keeps a checkpoint ring so the\n"
        "                               run is resumable after a kill\n"
        "  --checkpoint-out <file>      write a snapshot at the end of\n"
        "                               the run (and at every cadence\n"
        "                               boundary with the flag below;\n"
        "                               the prior file rotates to\n"
        "                               <file>.prev)\n"
        "  --checkpoint-every-ms <ms>   checkpoint cadence in simulated\n"
        "                               ms; each snapshot lands at the\n"
        "                               first quiescent point after a\n"
        "                               boundary (0 = end only)\n"
        "  --restore <file>             resume from a snapshot; pass\n"
        "                               the same workload/config/seed\n"
        "                               flags as the original run (any\n"
        "                               skew is a fatal error).  The\n"
        "                               resumed run's digests and\n"
        "                               stats are bit-identical to an\n"
        "                               uninterrupted run\n"
        "  --fnv1a <file>               print the file's FNV-1a 64\n"
        "                               checksum (16 hex digits) and\n"
        "                               exit; exit 1 if unreadable.\n"
        "                               Used by the fleet's remote\n"
        "                               artifact verification\n"
        "  --list                       list workloads and exit\n");
}

vip::SystemConfig
parseConfig(const std::string &name)
{
    if (name == "baseline")
        return vip::SystemConfig::Baseline;
    if (name == "frameburst")
        return vip::SystemConfig::FrameBurst;
    if (name == "iptoip")
        return vip::SystemConfig::IpToIp;
    if (name == "iptoip-fb")
        return vip::SystemConfig::IpToIpBurst;
    if (name == "vip")
        return vip::SystemConfig::VIP;
    vip::fatal("unknown config '", name, "'");
}

vip::Workload
parseWorkload(const std::string &name)
{
    if (name.size() >= 2 && (name[0] == 'A' || name[0] == 'a'))
        return vip::WorkloadCatalog::single(std::atoi(&name[1]));
    if (name.size() >= 2 && (name[0] == 'W' || name[0] == 'w'))
        return vip::WorkloadCatalog::byIndex(std::atoi(&name[1]));
    vip::fatal("unknown workload '", name, "' (use A1..A7 or W1..W8)");
}

void
listWorkloads()
{
    std::printf("single applications (Table 1):\n");
    for (int i = 1; i <= 7; ++i) {
        auto a = vip::AppCatalog::byIndex(i);
        std::printf("  A%d  %-14s (%s)\n", i, a.name.c_str(),
                    vip::appClassName(a.cls));
        for (const auto &f : a.flows) {
            std::printf("      %-26s ", f.name.c_str());
            for (auto s : f.stages)
                std::printf("%s-", vip::ipKindName(s));
            std::printf(" @%.0f FPS\n", f.fps);
        }
    }
    std::printf("multi-app workloads (Table 2):\n");
    for (const auto &w : vip::WorkloadCatalog::all()) {
        std::printf("  %-3s %s\n", w.name.c_str(),
                    w.useCase.c_str());
    }
}

void
report(const vip::RunStats &s)
{
    std::printf("==== %s / %s: %.2f simulated seconds ====\n",
                s.workloadName.c_str(), s.configName.c_str(),
                s.seconds);
    std::printf("frames      : %llu completed / %llu generated "
                "(%.1f FPS displayed)\n",
                static_cast<unsigned long long>(s.framesCompleted),
                static_cast<unsigned long long>(s.framesGenerated),
                s.achievedFps);
    std::printf("QoS         : %llu violations, %llu drops "
                "(%.1f%% / %.1f%%)\n",
                static_cast<unsigned long long>(s.violations),
                static_cast<unsigned long long>(s.drops),
                s.violationRate * 100.0, s.dropRate * 100.0);
    std::printf("latency     : %.3f ms from generation, %.3f ms "
                "pipeline transit\n",
                s.meanFlowTimeMs, s.meanTransitMs);
    std::printf("energy      : %.1f mJ total, %.3f mJ/frame "
                "(cpu %.1f, dram %.1f, sa %.1f, ip %.1f, buf %.2f)\n",
                s.totalEnergyMj, s.energyPerFrameMj, s.cpuEnergyMj,
                s.dramEnergyMj, s.saEnergyMj, s.ipEnergyMj,
                s.bufferEnergyMj);
    std::printf("CPU         : %.1f ms active, %llu interrupts "
                "(%.1f per 100 ms), %.0fM instructions, %.0f%% "
                "asleep\n",
                s.cpuActiveMs,
                static_cast<unsigned long long>(s.interrupts),
                s.interruptsPer100ms,
                static_cast<double>(s.instructions) / 1e6,
                s.cpuSleepFraction * 100.0);
    std::printf("memory      : %.2f GB/s avg (%.3f GB moved), "
                "row-hit %.0f%%, >80%% peak %.0f%% of time\n",
                s.avgMemBandwidthGBps, s.memBytesGB,
                s.memRowHitRate * 100.0,
                s.fracTimeAbove80PctBw * 100.0);
    std::printf("system agent: %.1f%% utilized\n",
                s.saUtilization * 100.0);
    const auto &L = s.latency;
    if (L.endToEnd.count > 0) {
        auto row = [](const char *nm,
                      const vip::LatencyBreakdown &b) {
            if (b.count == 0)
                return;
            std::printf("  %-8s %8.3f %8.3f %8.3f %8.3f  (n=%llu)\n",
                        nm, b.p50Ms, b.p95Ms, b.p99Ms, b.maxMs,
                        static_cast<unsigned long long>(b.count));
        };
        std::printf("latency breakdown (p50/p95/p99/max ms):\n");
        row("e2e", L.endToEnd);
        row("transit", L.transit);
        row("sa-xfer", L.saTransfer);
        row("dram", L.dramBurst);
        for (const auto &st : L.stages) {
            std::printf("  stage %-4s total %.3f/%.3f/%.3f ms  "
                        "mean wait %.3f  compute %.3f  blocked "
                        "%.3f ms\n",
                        st.stage.c_str(), st.total.p50Ms,
                        st.total.p95Ms, st.total.p99Ms,
                        st.wait.meanMs, st.compute.meanMs,
                        st.blocked.meanMs);
        }
    }
    if (s.faults.injected() > 0) {
        const auto &f = s.faults;
        std::printf("faults      : %llu injected (hang %llu, "
                    "corrupt %llu, xfer %llu, ecc %llu+%llu)\n",
                    static_cast<unsigned long long>(f.injected()),
                    static_cast<unsigned long long>(f.engineHangs),
                    static_cast<unsigned long long>(f.corruptions),
                    static_cast<unsigned long long>(f.transferErrors),
                    static_cast<unsigned long long>(f.eccCorrectable),
                    static_cast<unsigned long long>(
                        f.eccUncorrectable));
        std::printf("recovery    : %llu watchdog resets, %llu unit "
                    "retries, %llu retransmits, %llu frames "
                    "degraded, %.3f ms mean / %.3f ms max recovery\n",
                    static_cast<unsigned long long>(f.watchdogResets),
                    static_cast<unsigned long long>(f.unitRetries),
                    static_cast<unsigned long long>(
                        f.transferRetries),
                    static_cast<unsigned long long>(f.framesDegraded),
                    f.meanRecoveryMs(), f.recoveryMaxMs);
    }
    if (s.framesShed > 0 || s.flowsRejected > 0 ||
        s.flowsDownRated > 0 || s.laneOverflows > 0) {
        std::printf("overload    : %llu frames shed (%.1f%%), %u "
                    "flows rejected, %u down-rated, %llu lane "
                    "overflows\n",
                    static_cast<unsigned long long>(s.framesShed),
                    s.shedRate * 100.0, s.flowsRejected,
                    s.flowsDownRated,
                    static_cast<unsigned long long>(s.laneOverflows));
    }
    std::printf("per-flow:\n");
    for (const auto &f : s.flows) {
        std::printf("  %-28s %4llu/%llu frames, %llu viol, "
                    "%.2f ms, %.1f FPS%s%s\n",
                    f.name.c_str(),
                    static_cast<unsigned long long>(f.completed),
                    static_cast<unsigned long long>(f.generated),
                    static_cast<unsigned long long>(f.violations),
                    f.meanFlowTimeMs, f.achievedFps,
                    f.qosCritical ? "" : "  (non-critical)",
                    !f.admitted ? "  [rejected]"
                                : (f.fps != f.nominalFps
                                       ? "  [down-rated]"
                                       : ""));
        if (f.shed > 0) {
            std::printf("  %-28s %4llu frames shed at the chain "
                        "head\n", "",
                        static_cast<unsigned long long>(f.shed));
        }
    }
    std::printf("per-IP:\n");
    for (const auto &ip : s.ips) {
        std::printf("  %-5s active %7.2f ms, stall %7.2f ms, "
                    "util %.2f, %6.1f MB DRAM, %llu ctx switches\n",
                    ip.name.c_str(), ip.activeMs, ip.stallMs,
                    ip.utilization,
                    static_cast<double>(ip.memBytes) / 1e6,
                    static_cast<unsigned long long>(
                        ip.contextSwitches));
    }
}

/** Write the trace JSON and metrics CSV, when requested. */
bool
traceJson(vip::Simulation &sim, const vip::SocConfig &cfg,
          const std::string &workload, const std::string &config)
{
    if (cfg.trace.enabled()) {
        std::ofstream out(cfg.trace.out);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n",
                         cfg.trace.out.c_str());
            return false;
        }
        sim.tracer()->writeJson(
            out, {{"workload", workload},
                  {"config", config},
                  {"seed", std::to_string(cfg.seed)}});
        std::printf("trace written to %s (%zu events, %llu "
                    "dropped)\n",
                    cfg.trace.out.c_str(), sim.tracer()->size(),
                    static_cast<unsigned long long>(
                        sim.tracer()->dropped()));
    }
    if (cfg.metrics.enabled()) {
        // Rows were streamed (and flushed) as they were sampled.
        std::printf("metrics written to %s (%zu rows, %zu probes)\n",
                    cfg.metrics.out.c_str(), sim.metrics()->rows(),
                    sim.metrics()->probes());
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "W4";
    std::string config = "vip";
    std::string traceFile;
    std::string digestFile;
    bool wantStats = false;
    vip::SocConfig cfg;
    cfg.simSeconds = 0.4;

    try {
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                vip::fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--fnv1a") {
            // Checksum-and-exit mode: lets a bare remote host verify
            // staged/produced artifacts with no tooling beyond the
            // worker binary itself.
            const std::string path = next();
            bool ok = false;
            const std::uint64_t h = vip::fleet::fnv1aFile(path, &ok);
            if (!ok)
                return 1;
            std::printf("%s\n", vip::fleet::fnvHex(h).c_str());
            return 0;
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--config") {
            config = next();
        } else if (arg == "--seconds") {
            cfg.simSeconds = std::atof(next().c_str());
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--burst") {
            cfg.burstFrames = std::atoi(next().c_str());
        } else if (arg == "--lanes") {
            cfg.vipLanes = std::atoi(next().c_str());
        } else if (arg == "--sched") {
            auto v = next();
            cfg.vipSched = v == "fifo" ? vip::SchedPolicy::FIFO
                : v == "rr" ? vip::SchedPolicy::RoundRobin
                : vip::SchedPolicy::EDF;
        } else if (arg == "--lane-bytes") {
            cfg.laneBytes = std::atoi(next().c_str());
        } else if (arg == "--deadline") {
            cfg.deadlineFrames = std::atof(next().c_str());
        } else if (arg == "--ideal-memory") {
            cfg.dram.ideal = true;
        } else if (arg == "--no-lowpower") {
            cfg.dram.enableLowPower = false;
        } else if (arg == "--dvfs") {
            cfg.cpu.governor = vip::CpuGovernor::OnDemand;
        } else if (arg == "--vsync") {
            cfg.vsyncAligned = true;
        } else if (arg == "--spill") {
            cfg.overflowToMemory = true;
        } else if (arg == "--overload-policy") {
            auto v = next();
            if (v == "reject")
                cfg.overloadPolicy = vip::OverloadPolicy::Reject;
            else if (v == "degrade")
                cfg.overloadPolicy = vip::OverloadPolicy::Degrade;
            else if (v == "besteffort")
                cfg.overloadPolicy = vip::OverloadPolicy::BestEffort;
            else
                vip::fatal("unknown overload policy '", v, "'");
        } else if (arg == "--admission-headroom") {
            cfg.admissionHeadroom = std::atof(next().c_str());
        } else if (arg == "--shed-after") {
            cfg.shedAfterLateFrames = std::atoi(next().c_str());
        } else if (arg == "--fault-plan") {
            cfg.fault = vip::FaultPlan::parse(next());
        } else if (arg == "--fault-hang") {
            cfg.fault.engineHangProb = std::atof(next().c_str());
        } else if (arg == "--fault-corrupt") {
            cfg.fault.subframeCorruptProb = std::atof(next().c_str());
        } else if (arg == "--fault-xfer") {
            cfg.fault.transferErrorProb = std::atof(next().c_str());
        } else if (arg == "--fault-ecc") {
            cfg.fault.eccCorrectableProb = std::atof(next().c_str());
        } else if (arg == "--fault-ecc-fatal") {
            cfg.fault.eccUncorrectableProb =
                std::atof(next().c_str());
        } else if (arg == "--fault-seed") {
            cfg.fault.seed =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--fault-watchdog-us") {
            cfg.fault.watchdogTimeout =
                vip::fromUs(std::atof(next().c_str()));
        } else if (arg == "--fault-retries") {
            cfg.fault.maxRetries = std::atoi(next().c_str());
        } else if (arg == "--guard-ms") {
            cfg.noProgressSec = std::atof(next().c_str()) / 1000.0;
        } else if (arg == "--audit") {
            cfg.audit = vip::AuditConfig::parse(next());
        } else if (arg.rfind("--audit=", 0) == 0) {
            cfg.audit = vip::AuditConfig::parse(arg.substr(8));
        } else if (arg == "--digest-out") {
            digestFile = next();
        } else if (arg.rfind("--digest-out=", 0) == 0) {
            digestFile = arg.substr(13);
        } else if (arg == "--stats") {
            wantStats = true;
        } else if (arg == "--frame-csv") {
            traceFile = next();
            cfg.recordTrace = true;
        } else if (arg == "--trace-out") {
            cfg.trace.out = next();
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            cfg.trace.out = arg.substr(12);
        } else if (arg == "--trace") {
            cfg.trace.categories = vip::parseTraceCats(next());
        } else if (arg.rfind("--trace=", 0) == 0) {
            cfg.trace.categories =
                vip::parseTraceCats(arg.substr(8));
        } else if (arg == "--trace-buffer") {
            const std::string v = next();
            char *end = nullptr;
            cfg.trace.bufferEvents =
                std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0'
                || cfg.trace.bufferEvents == 0)
                vip::fatal("--trace-buffer needs a positive event "
                           "count, got '", v, "'");
        } else if (arg == "--metrics-out") {
            cfg.metrics.out = next();
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            cfg.metrics.out = arg.substr(14);
        } else if (arg == "--stats-out") {
            cfg.statsOut = next();
        } else if (arg.rfind("--stats-out=", 0) == 0) {
            cfg.statsOut = arg.substr(12);
        } else if (arg == "--prof") {
            cfg.prof.out = "prof.json";
        } else if (arg.rfind("--prof=", 0) == 0) {
            cfg.prof.out = arg.substr(7);
            if (cfg.prof.out.empty())
                vip::fatal("--prof= needs a file name");
        } else if (arg == "--prof-sample-every" ||
                   arg.rfind("--prof-sample-every=", 0) == 0) {
            std::string v = arg[19] == '=' ? arg.substr(20) : next();
            char *end = nullptr;
            cfg.prof.sampleEvery = std::strtoull(v.c_str(), &end, 10);
            if (end == v.c_str() || *end != '\0'
                || cfg.prof.sampleEvery == 0)
                vip::fatal("--prof-sample-every needs a positive "
                           "count, got '", v, "'");
        } else if (arg == "--ts") {
            cfg.ts.armed = true;
        } else if (arg.rfind("--ts=", 0) == 0) {
            cfg.ts.armed = true;
            cfg.ts.glob = arg.substr(5);
            if (cfg.ts.glob.empty())
                vip::fatal("--ts= needs a stat glob");
        } else if (arg == "--ts-out") {
            cfg.ts.out = next();
            cfg.ts.armed = true;
        } else if (arg.rfind("--ts-out=", 0) == 0) {
            cfg.ts.out = arg.substr(9);
            cfg.ts.armed = true;
            if (cfg.ts.out.empty())
                vip::fatal("--ts-out= needs a file name");
        } else if (arg == "--checkpoint-on-steady") {
            cfg.ts.checkpointOnSteady = "steady.vips";
            cfg.ts.armed = true;
        } else if (arg.rfind("--checkpoint-on-steady=", 0) == 0) {
            cfg.ts.checkpointOnSteady = arg.substr(23);
            cfg.ts.armed = true;
            if (cfg.ts.checkpointOnSteady.empty())
                vip::fatal("--checkpoint-on-steady= needs a file "
                           "name");
        } else if (arg == "--postmortem-dir") {
            cfg.postmortemDir = next();
        } else if (arg.rfind("--postmortem-dir=", 0) == 0) {
            cfg.postmortemDir = arg.substr(17);
        } else if (arg == "--checkpoint-out") {
            cfg.checkpointOut = next();
        } else if (arg.rfind("--checkpoint-out=", 0) == 0) {
            cfg.checkpointOut = arg.substr(17);
        } else if (arg == "--checkpoint-every-ms") {
            const std::string v = next();
            char *end = nullptr;
            cfg.checkpointEveryMs = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' ||
                !(cfg.checkpointEveryMs > 0.0))
                vip::fatal("--checkpoint-every-ms needs a "
                           "positive period, got '", v, "'");
        } else if (arg == "--restore") {
            cfg.restorePath = next();
        } else if (arg.rfind("--restore=", 0) == 0) {
            cfg.restorePath = arg.substr(10);
        } else if (arg == "--metrics-interval-ms") {
            const std::string v = next();
            cfg.metrics.intervalMs = std::atof(v.c_str());
            if (!(cfg.metrics.intervalMs > 0.0))
                vip::fatal("--metrics-interval-ms needs a positive "
                           "period, got '", v, "'");
        } else if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 1;
        }
    }

        cfg.system = parseConfig(config);
        if (!digestFile.empty() && !cfg.audit.enabled())
            cfg.audit = vip::AuditConfig::parse("periodic:1");
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        cfg.interruptFlag = &gSignal;
        vip::Simulation sim(cfg, parseWorkload(workload));
        auto s = sim.run();
        report(s);
        if (sim.interrupted()) {
            std::fprintf(stderr,
                         "interrupted : signal %d at %.3f simulated "
                         "ms; outputs flushed%s%s\n",
                         sim.interruptSignal(),
                         vip::toMs(sim.system().curTick()),
                         sim.checkpointsWritten() > 0
                             ? ", resume with --restore "
                             : " (no checkpoint ring armed)",
                         sim.checkpointsWritten() > 0
                             ? sim.lastCheckpointPath().c_str()
                             : "");
        }
        if (sim.checkpointsWritten() > 0) {
            std::printf("checkpoints : %llu snapshot(s) written%s%s\n",
                        static_cast<unsigned long long>(
                            sim.checkpointsWritten()),
                        cfg.checkpointOut.empty() ? "" : ", latest ",
                        cfg.checkpointOut.c_str());
        }
        if (cfg.audit.enabled()) {
            std::printf("audit       : %llu passes, %llu digest "
                        "records, %llu violations (%s), stream "
                        "%016llx\n",
                        static_cast<unsigned long long>(s.auditPasses),
                        static_cast<unsigned long long>(
                            s.auditRecords),
                        static_cast<unsigned long long>(
                            s.auditViolations),
                        vip::auditModeName(cfg.audit.mode),
                        static_cast<unsigned long long>(
                            s.digestStreamHash));
            for (const auto &v : sim.auditor().violations())
                std::printf("  %s\n", v.format().c_str());
        }
        if (wantStats)
            sim.dumpStats(std::cout);
        if (!cfg.statsOut.empty()) {
            std::ofstream out(cfg.statsOut);
            if (!out)
                vip::fatal("cannot write ", cfg.statsOut);
            sim.writeStatsJson(out);
            std::printf("stats written to %s (%zu stats)\n",
                        cfg.statsOut.c_str(),
                        sim.statsRegistry().size());
        }
        if (cfg.prof.enabled()) {
            std::ofstream out(cfg.prof.out);
            if (!out)
                vip::fatal("cannot write ", cfg.prof.out);
            sim.writeProfJson(out);
            std::printf("profile written to %s (%llu dispatches, "
                        "%llu sampled)\n",
                        cfg.prof.out.c_str(),
                        static_cast<unsigned long long>(
                            sim.profiler()->dispatches()),
                        static_cast<unsigned long long>(
                            sim.profiler()->sampledDispatches()));
        }
        if (cfg.ts.enabled() && !cfg.ts.out.empty()) {
            std::ofstream out(cfg.ts.out);
            if (!out)
                vip::fatal("cannot write ", cfg.ts.out);
            sim.writeSeriesJson(out);
            const vip::TimeSeries *ts = sim.timeseries();
            if (ts->steadyDetected()) {
                std::printf("series written to %s (%zu rows x %zu "
                            "stats; steady at %.3f ms)\n",
                            cfg.ts.out.c_str(), ts->rows(),
                            ts->selected(), ts->steadyTickMs());
            } else {
                std::printf("series written to %s (%zu rows x %zu "
                            "stats; steady state not reached)\n",
                            cfg.ts.out.c_str(), ts->rows(),
                            ts->selected());
            }
        }
        if (cfg.ts.enabled() &&
            !cfg.ts.checkpointOnSteady.empty()) {
            const vip::TimeSeries *ts = sim.timeseries();
            if (ts->steadyDetected()) {
                std::printf("steady      : detected at %.3f ms; "
                            "warm-start snapshot %s\n",
                            ts->steadyTickMs(),
                            cfg.ts.checkpointOnSteady.c_str());
            } else {
                std::fprintf(stderr,
                             "steady      : not reached; no snapshot "
                             "written to %s\n",
                             cfg.ts.checkpointOnSteady.c_str());
            }
        }
        if (!traceFile.empty()) {
            std::ofstream out(traceFile);
            s.trace.dumpCsv(out);
            std::printf("trace written to %s (%zu frames)\n",
                        traceFile.c_str(), s.trace.size());
        }
        if (!traceJson(sim, cfg, workload, config))
            return 1;
        if (!digestFile.empty()) {
            std::ofstream out(digestFile);
            if (!out)
                vip::fatal("cannot write ", digestFile);
            std::vector<std::string> meta{
                "workload=" + workload, "config=" + config,
                "seed=" + std::to_string(cfg.seed)};
            for (const auto &l : vip::provenanceMetaLines())
                meta.push_back(l);
            sim.auditor().writeDigestStream(out, meta);
            std::printf("digest stream written to %s (%zu records)\n",
                        digestFile.c_str(),
                        sim.auditor().stream().records.size());
        }
        if (sim.interrupted())
            return 128 + sim.interruptSignal();
        if (s.auditViolations > 0)
            return 1;
    } catch (const vip::SimFatal &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
    return 0;
}
