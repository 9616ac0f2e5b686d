#include "campaign.hh"

#include <algorithm>
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
    obs::Counter cellsFromCheckpoint{"campaign.cells_from_checkpoint"};
    obs::Counter cellsFailed{"campaign.cells_failed"};
    obs::Counter checkpointSaves{"campaign.checkpoint_saves"};
    obs::Counter checkpointWriteFailures{
        "campaign.checkpoint_write_failures"};
    obs::Counter csvFlushes{"campaign.csv_flushes"};
    obs::Counter cellNs{"campaign.time.cell_ns"};
    obs::Counter checkpointNs{"campaign.time.checkpoint_ns"};
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
    // Appended only when enabled: attribution-off hashes must match
    // journals written before the flag existed so they stay resumable.
    if (options.sampling.attribution)
        os << ";attr=1";
    return fnv1a64Hex(os.str());
}

Campaign::Campaign(VulnerabilityEngine &the_engine,
                   const StructureRegistry &structures,
                   CampaignOptions the_options)
    : engine(&the_engine), registry(&structures),
      options(std::move(the_options))
{
    journal.configHash = campaignConfigHash(options);
}

void
Campaign::save() const
{
    if (options.checkpointPath.empty())
        return;
    const obs::Span span("campaign.checkpoint",
                         &campaignMetrics().checkpointNs);
    // A checkpoint is a convenience, not a result: if the disk fills
    // (or an armed crash point throws) mid-sweep, losing checkpoint
    // freshness must not lose the sweep. The atomic write discipline
    // guarantees the previous journal survives the failed save, so a
    // later resume still works from the last good state.
    try {
        saveCheckpoint(options.checkpointPath, journal);
    } catch (const DavfError &error) {
        if (error.kind() != ErrorKind::Io)
            throw;
        campaignMetrics().checkpointWriteFailures.add(1);
        davf_warn("checkpoint save to '", options.checkpointPath,
                  "' failed (campaign continues): ", error.what());
        return;
    }
    campaignMetrics().checkpointSaves.add(1);
    if (options.onCheckpointSaved)
        options.onCheckpointSaved();
}

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

    // The cell schedule, in deterministic order; the journal holds one
    // cell per planned cell, in plan order, which is what makes its
    // serialization canonical.
    struct PlannedCell
    {
        CheckpointKey key;
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
    journal.cells.clear();
    for (const PlannedCell &planned : plan) {
        journal.cells.emplace_back();
        journal.cells.back().key = planned.key;
    }

    if (options.resume) {
        if (options.checkpointPath.empty()) {
            davf_throw(ErrorKind::BadArgument,
                       "resume requested without a checkpoint path");
        }
        // Lenient about a torn final line only: the journal is written
        // atomically, so a damaged tail means the file was copied or
        // the filesystem crashed mid-write — losing that one record
        // (it is re-simulated) beats refusing to resume.
        CheckpointLoadStats stats;
        Result<Checkpoint> loaded =
            loadCheckpoint(options.checkpointPath, &stats);
        if (!loaded)
            throw loaded.error();
        if (stats.truncatedTail) {
            davf_warn("checkpoint '", options.checkpointPath,
                      "': dropped torn final line \"",
                      stats.droppedLine.substr(0, 80),
                      "\"; its record will be recomputed");
        } else if (stats.missingEnd) {
            davf_warn("checkpoint '", options.checkpointPath,
                      "': missing end record (truncated write?); "
                      "resuming from the readable prefix");
        }
        if (loaded.value().configHash != journal.configHash) {
            davf_throw(ErrorKind::BadArgument,
                       "checkpoint '", options.checkpointPath,
                       "' was written by a different campaign "
                       "configuration (hash ",
                       loaded.value().configHash, ", expected ",
                       journal.configHash, ")");
        }
        for (CheckpointCell &cell : loaded.value().cells) {
            CheckpointCell *planned = journal.find(cell.key);
            if (!planned) {
                davf_throw(ErrorKind::BadInput, "checkpoint '",
                           options.checkpointPath, "': cell ",
                           cell.key.kind, ' ', cell.key.structure, ' ',
                           cell.key.delay, " is not in this campaign");
            }
            *planned = std::move(cell);
        }
    }

    auto stop_requested = [&]() {
        return options.stopFlag
            && options.stopFlag->load(std::memory_order_relaxed);
    };

    // A dispatcher runs whole cells: the caller's in any mode, else a
    // supervisor of the campaign's own in process mode. Without one,
    // cells compute in-process.
    ShardDispatcher *dispatcher = options.dispatcher;
    davf_assert(dispatcher || options.isolate != IsolationMode::Net,
                "IsolationMode::Net needs a ShardDispatcher");
    if (!dispatcher && options.isolate == IsolationMode::Process) {
        SupervisorOptions sup = options.supervisor;
        sup.configHash = journal.configHash;
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
    for (size_t index = 0; index < plan.size(); ++index) {
        const PlannedCell &planned = plan[index];
        CheckpointCell &entry = journal.cells[index];

        SamplingConfig config = options.sampling;
        config.stopFlag = options.stopFlag;
        config.maxFailureRate = options.maxFailureRate;

        CampaignCellResult cell;
        cell.key = planned.key;
        cell.delay = planned.delay;

        // A journaled verdict is final. An ok davf cell's aggregate is
        // derived from its journaled outcomes again, which simulates
        // nothing; the failure-rate gate already passed when the
        // verdict was written, so a stricter rate on resume cannot
        // overturn it.
        if (entry.state != CheckpointCell::State::Open) {
            cell.fromCheckpoint = true;
            cell.failed = entry.state == CheckpointCell::State::Failed;
            cell.failReason = entry.failReason;
            cell.savf = entry.savf;
            if (!cell.failed && planned.key.kind == "davf") {
                if (entry.cycles.size()
                    != engine->injectionCycles(config).size()) {
                    davf_throw(ErrorKind::BadInput, "checkpoint '",
                               options.checkpointPath, "': finished cell ",
                               planned.key.structure, ' ',
                               planned.key.delay, " journals ",
                               entry.cycles.size(), " of its cycles");
                }
                DelayAvfProgress progress;
                progress.completed = entry.cycles;
                config.maxFailureRate = 1.0;
                cell.davf = engine->delayAvf(*planned.structure,
                                             planned.delay, config,
                                             &progress);
            }
            summary.cells.push_back(std::move(cell));
            ++summary.cellsFromCheckpoint;
            campaignMetrics().cellsFromCheckpoint.add(1);
            if (entry.state == CheckpointCell::State::Failed)
                ++summary.cellsFailed;
            continue;
        }

        if (stop_requested()) {
            summary.interrupted = true;
            save();
            break;
        }

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

            // Journal every completed injection cycle: an interruption
            // (even SIGKILL) loses at most one cycle of work.
            auto journal_cycle = [&](const InjectionCycleOutcome &outcome) {
                if (entry.addCycle(outcome))
                    save();
            };

            // Completed cycles are the journaled ones plus the cache's
            // hits; only the rest is computed.
            DelayAvfProgress progress;
            progress.completed = entry.cycles;
            std::vector<uint64_t> todo;
            for (uint64_t cycle : engine->injectionCycles(config)) {
                if (std::any_of(entry.cycles.begin(), entry.cycles.end(),
                                [&](const InjectionCycleOutcome &out) {
                                    return out.cycle == cycle;
                                }))
                    continue;
                spec.cycle = cycle;
                InjectionCycleOutcome hit;
                SavfResult unused;
                if (options.cache.lookup
                    && options.cache.lookup(spec, hit, unused)) {
                    ++summary.shardsFromCache;
                    journal_cycle(hit);
                    progress.completed.push_back(std::move(hit));
                } else {
                    todo.push_back(cycle);
                }
            }

            // Every computed outcome is journaled and cached. Calls are
            // serialized by the engine or the dispatcher.
            progress.onCycleDone =
                [&](const InjectionCycleOutcome &outcome) {
                    journal_cycle(outcome);
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
                // outcome is journaled through the same onCycleDone as
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
            // Completed cycles are already journaled via onCycleDone;
            // save once more and stop cleanly.
            summary.interrupted = true;
            save();
            break;
        }

        // The cell is final (completed or failed): journal its verdict.
        entry.state = cell.failed ? CheckpointCell::State::Failed
                                  : CheckpointCell::State::Ok;
        entry.failReason = cell.failReason;
        entry.savf = cell.savf;

        if (cell.failed) {
            ++summary.cellsFailed;
            campaignMetrics().cellsFailed.add(1);
        }
        ++summary.cellsComputed;
        campaignMetrics().cellsComputed.add(1);
        summary.cells.push_back(std::move(cell));

        save();
        flushCsv(summary);
    }

    flushCsv(summary);
    return summary;
}

} // namespace davf
