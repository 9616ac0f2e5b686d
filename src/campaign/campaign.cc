#include "campaign.hh"

#include <sstream>

#include "core/report.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/atomic_file.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace davf {

namespace {

/** Campaign metric handles (docs/OBSERVABILITY.md). */
struct CampaignMetrics
{
    obs::Counter cellsComputed{"campaign.cells_computed"};
    obs::Counter cellsFailed{"campaign.cells_failed"};
    obs::Counter csvFlushes{"campaign.csv_flushes"};
    obs::Counter cellNs{"campaign.time.cell_ns"};
};

CampaignMetrics &
campaignMetrics()
{
    static CampaignMetrics *const metrics = new CampaignMetrics();
    return *metrics;
}

} // namespace

std::vector<ReportRow>
reportRows(const CampaignSummary &summary, const std::string &label)
{
    std::vector<ReportRow> rows;
    for (const char *kind : {"davf", "savf"}) {
        for (const CampaignCellResult &cell : summary.cells) {
            if (cell.key.kind != kind || cell.failed)
                continue;
            ReportRow row;
            row.kind = kind;
            row.benchmark = cell.key.benchmark;
            row.structure = cell.key.structure + label;
            row.delayFraction = cell.delay;
            row.davf = cell.davf;
            row.savf = cell.savf;
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

std::string
campaignConfigHash(const CampaignOptions &options)
{
    std::ostringstream os;
    os << "benchmark=" << options.benchmark << ";structures=";
    for (const std::string &name : options.structures)
        os << name << ',';
    os << ";delays=";
    for (double d : options.delays)
        os << canonicalDelay(d) << ',';
    os << ";savf=" << (options.runSavf ? 1 : 0)
       << ";cycleFraction=" << canonicalDelay(options.sampling.cycleFraction)
       << ";maxInjectionCycles=" << options.sampling.maxInjectionCycles
       << ";maxWires=" << options.sampling.maxWires
       << ";maxFlops=" << options.sampling.maxFlops
       << ";seed=" << options.sampling.seed
       << ";watchdogSlack=" << options.sampling.watchdogSlack;
    // Appended only when enabled: attribution-off hashes match those
    // of releases before the flag, so their quarantine records apply.
    if (options.sampling.attribution)
        os << ";attr=1";
    return fnv1a64Hex(os.str());
}

Campaign::Campaign(VulnerabilityEngine &the_engine,
                   const StructureRegistry &structures,
                   CampaignOptions the_options)
    : engine(&the_engine), registry(&structures),
      options(std::move(the_options))
{}

void
Campaign::flushCsv(const CampaignSummary &summary) const
{
    if (options.csvPath.empty())
        return;
    campaignMetrics().csvFlushes.add(1);
    std::ostringstream os;
    std::ostringstream attr_os;
    os << delayAvfCsvHeader() << '\n';
    for (const CampaignCellResult &cell : summary.cells) {
        if (cell.key.kind != "davf" || cell.failed)
            continue;
        const std::string label =
            cell.key.structure + options.structureLabel;
        os << delayAvfCsvRow(cell.key.benchmark, label, cell.delay,
                             cell.davf)
           << '\n';
        attr_os << attributionCsvRows(cell.key.benchmark, label,
                                      cell.delay, cell.davf);
    }
    writeFileAtomic(options.csvPath, os.str());
    // The per-instruction attribution table is a differently-shaped
    // relation, so it goes to a sibling file rather than a second
    // header block that would break naive CSV readers.
    if (!attr_os.str().empty()) {
        writeFileAtomic(options.csvPath + ".attr",
                        attributionCsvHeader() + "\n" + attr_os.str());
    }
}

CampaignSummary
Campaign::run()
{
    // Resolve structures up front: an unknown name is a user error that
    // should fail the campaign before any simulation time is spent.
    std::vector<const Structure *> resolved;
    for (const std::string &name : options.structures) {
        const Structure *structure = registry->find(name);
        if (!structure) {
            davf_throw(ErrorKind::NotFound, "unknown structure '", name,
                       "'");
        }
        resolved.push_back(structure);
    }

    // The cell schedule, in deterministic order.
    struct PlannedCell
    {
        CellKey key;
        const Structure *structure;
        double delay;
    };
    std::vector<PlannedCell> plan;
    for (size_t s = 0; s < resolved.size(); ++s) {
        for (double d : options.delays) {
            plan.push_back({{"davf", options.benchmark,
                             options.structures[s], canonicalDelay(d)},
                            resolved[s], d});
        }
        if (options.runSavf) {
            plan.push_back({{"savf", options.benchmark,
                             options.structures[s],
                             canonicalDelay(0.0)},
                            resolved[s], 0.0});
        }
    }

    // A dispatcher runs whole cells: the caller's in any mode, else a
    // supervisor of the campaign's own in process mode. Without one,
    // cells compute in-process.
    ShardDispatcher *dispatcher = options.dispatcher;
    davf_assert(dispatcher || options.isolate != IsolationMode::Net,
                "IsolationMode::Net needs a ShardDispatcher");
    if (!dispatcher && options.isolate == IsolationMode::Process) {
        SupervisorOptions sup = options.supervisor;
        sup.configHash = campaignConfigHash(options);
        sup.benchmark = options.benchmark;
        sup.seed = options.sampling.seed;
        sup.stopFlag = options.stopFlag;
        supervisor =
            std::make_unique<Supervisor>(*engine, *registry, std::move(sup));
        dispatcher = supervisor.get();
    }

    // A campaign sweeps every structure across the same delay list, so
    // the engine can reuse per-cycle golden context and verdicts across
    // adjacent delay values (docs/PERFORMANCE.md). Bit-identical by
    // construction; the guard keeps the caches from outliving the run.
    engine->beginDelaySweep(options.delays);
    struct SweepGuard {
        VulnerabilityEngine *engine;
        ~SweepGuard() { engine->endDelaySweep(); }
    } sweep_guard{engine};

    CampaignSummary summary;
    for (const PlannedCell &planned : plan) {
        if (options.stopFlag
            && options.stopFlag->load(std::memory_order_relaxed)) {
            summary.interrupted = true;
            break;
        }

        SamplingConfig config = options.sampling;
        config.stopFlag = options.stopFlag;
        config.maxFailureRate = options.maxFailureRate;

        CampaignCellResult cell;
        cell.key = planned.key;
        cell.delay = planned.delay;

        const obs::Span cell_span("campaign.cell",
                                  &campaignMetrics().cellNs);

        // The cell's shards under the cache tier's keys; the sampling
        // knobs are the effective ones (threads and the stop flag are
        // not part of a key).
        ShardSpec spec;
        spec.structure = planned.key.structure;
        spec.sampling = config;

        // Each kind of cell comes from the cache, or runs dispatched or
        // in-process.
        bool stopped = false;
        if (planned.key.kind == "savf") {
            spec.kind = ShardSpec::Kind::Savf;
            InjectionCycleOutcome unused;
            const bool hit = options.cache.lookup
                && options.cache.lookup(spec, unused, cell.savf);
            if (hit) {
                ++summary.shardsFromCache;
            } else if (dispatcher) {
                const ShardDispatcher::CellResult shard =
                    dispatcher->runSavfCell(planned.key.structure, config,
                                            cell.savf);
                stopped = shard.stopped;
                cell.failed = shard.failed;
                cell.failReason = shard.failReason;
            } else {
                cell.savf = engine->savf(*planned.structure, config);
                stopped = cell.savf.stopped;
            }
            if (!hit && !stopped && !cell.failed) {
                ++summary.shardsComputed;
                if (options.cache.store)
                    options.cache.store(spec, {}, cell.savf);
            }
        } else {
            spec.kind = ShardSpec::Kind::Cycle;
            spec.delayFraction = planned.delay;

            // Completed cycles are the cache's hits; only the rest is
            // computed.
            DelayAvfProgress progress;
            std::vector<uint64_t> todo;
            for (uint64_t cycle : engine->injectionCycles(config)) {
                spec.cycle = cycle;
                InjectionCycleOutcome hit;
                SavfResult unused;
                if (options.cache.lookup
                    && options.cache.lookup(spec, hit, unused)) {
                    ++summary.shardsFromCache;
                    progress.completed.push_back(std::move(hit));
                } else {
                    todo.push_back(cycle);
                }
            }

            // Every computed outcome goes to the cache the moment it
            // completes, so an interruption (even SIGKILL) loses only
            // the cycles in flight. Calls are serialized by the engine
            // or the dispatcher.
            progress.onCycleDone =
                [&](const InjectionCycleOutcome &outcome) {
                    ++summary.shardsComputed;
                    if (options.cache.store) {
                        ShardSpec computed = spec;
                        computed.cycle = outcome.cycle;
                        options.cache.store(computed, outcome, {});
                    }
                };

            // Aggregation from completed outcomes is shared by every
            // mode; catching ExcessiveFailures (the cell is
            // untrustworthy) records why and moves on.
            auto aggregate = [&] {
                try {
                    cell.davf = engine->delayAvf(*planned.structure,
                                                 planned.delay, config,
                                                 &progress);
                } catch (const DavfError &error) {
                    if (error.kind() != ErrorKind::ExcessiveFailures)
                        throw;
                    cell.failed = true;
                    cell.failReason = error.what();
                    cell.failKind = error.kind();
                }
            };

            if (dispatcher) {
                // Workers compute the rest, the dispatcher retries (and,
                // for processes, quarantines), and every completed
                // outcome is cached through the same onCycleDone as
                // thread mode and joins the cell's completed cycles.
                ShardDispatcher::CellResult shard =
                    dispatcher->runDavfCell(
                        planned.key.structure, planned.delay, todo, config,
                        [&](const InjectionCycleOutcome &outcome) {
                            progress.onCycleDone(outcome);
                            progress.completed.push_back(outcome);
                        });
                for (QuarantineRecord &record : shard.quarantined)
                    summary.quarantined.push_back(std::move(record));
                stopped = shard.stopped;
                if (shard.failed) {
                    cell.failed = true;
                    cell.failReason = std::move(shard.failReason);
                } else if (!stopped) {
                    // No cycle is left to simulate, so the engine call
                    // only aggregates, which keeps the isolated modes
                    // bit-identical to thread mode at any worker count.
                    aggregate();
                }
            } else {
                // delayAvf() simulates exactly the cycles missing from
                // progress.completed.
                aggregate();
                stopped = !cell.failed && cell.davf.stopped;
            }
        }
        if (stopped) {
            // Completed cycles are already cached via onCycleDone.
            summary.interrupted = true;
            break;
        }

        if (cell.failed) {
            ++summary.cellsFailed;
            campaignMetrics().cellsFailed.add(1);
        }
        ++summary.cellsComputed;
        campaignMetrics().cellsComputed.add(1);
        summary.cells.push_back(std::move(cell));
        flushCsv(summary);
    }

    flushCsv(summary);
    return summary;
}

} // namespace davf
