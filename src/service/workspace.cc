#include "workspace.hh"

#include <sstream>

#include "isa/assembler.hh"
#include "isa/benchmarks.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace davf::service {

namespace {

uint64_t
fnv1aWord(uint64_t value, uint64_t hash)
{
    return fnv1a64Extend(
        hash, std::string_view(reinterpret_cast<const char *>(&value),
                               sizeof value));
}

} // namespace

std::string
serializeWorkspaceSpec(const WorkspaceSpec &spec)
{
    std::ostringstream os;
    os << spec.benchmark << ' ' << (spec.ecc ? 1 : 0) << ' '
       << (spec.staPeriod ? 1 : 0);
    return os.str();
}

Result<WorkspaceSpec>
parseWorkspaceSpec(const std::string &text)
{
    using R = Result<WorkspaceSpec>;
    std::istringstream is(text);
    WorkspaceSpec spec;
    int ecc = 0;
    int sta = 0;
    if (!(is >> spec.benchmark >> ecc >> sta) || (ecc != 0 && ecc != 1)
        || (sta != 0 && sta != 1)) {
        return R::Err(ErrorKind::BadInput,
                      "workspace spec: bad fields: " + text);
    }
    std::string trailing;
    if (is >> trailing) {
        return R::Err(ErrorKind::BadInput,
                      "workspace spec: trailing tokens: " + text);
    }
    spec.ecc = ecc == 1;
    spec.staPeriod = sta == 1;
    return R::Ok(std::move(spec));
}

uint64_t
netlistHash(const Netlist &netlist)
{
    davf_assert(netlist.finalized(),
                "netlistHash needs a finalized netlist");
    uint64_t hash = kFnv1a64Seed;
    hash = fnv1aWord(netlist.numCells(), hash);
    hash = fnv1aWord(netlist.numNets(), hash);
    hash = fnv1aWord(netlist.numWires(), hash);
    hash = fnv1aWord(netlist.numStateElems(), hash);
    for (CellId id = 0; id < netlist.numCells(); ++id) {
        const Cell &cell = netlist.cell(id);
        hash = fnv1aWord(static_cast<uint64_t>(cell.type), hash);
        hash = fnv1aWord(cell.resetValue ? 1 : 0, hash);
        hash = fnv1a64Extend(hash, cell.name);
        for (NetId net : cell.inputs)
            hash = fnv1aWord(net, hash);
        for (NetId net : cell.outputs)
            hash = fnv1aWord(net, hash);
    }
    return hash;
}

Workspace::Workspace(const WorkspaceSpec &spec,
                     const WorkspaceOptions &ws_options)
    : wsSpec(spec)
{
    const BenchmarkProgram &program = beebsBenchmark(spec.benchmark);
    IbexMiniConfig config;
    config.eccRegfile = spec.ecc;
    const std::vector<uint32_t> image = assemble(program.source);
    socPtr = std::make_unique<IbexMini>(config, image);
    workloadPtr = std::make_unique<SocWorkload>(*socPtr);

    EngineOptions options;
    options.goldenThreads = ws_options.threads;
    options.measurePeriod = ws_options.measurePeriod;
    if (!spec.staPeriod) {
        // Timing-closure emulation (see EngineOptions): the observed
        // critical activity sets the clock, as in an optimized core.
        options.periodMode =
            EngineOptions::PeriodMode::ObservedMaxPlusMargin;
    }
    enginePtr = std::make_unique<VulnerabilityEngine>(
        socPtr->netlist(), CellLibrary::defaultLibrary(), *workloadPtr,
        options);
    davf_assert(enginePtr->goldenOutput() == program.expectedOutput,
                "golden run of ", spec.benchmark,
                " produced wrong output");

    attrPtr = std::make_unique<analysis::SocAttribution>(
        *socPtr, *workloadPtr, image);
    enginePtr->setAttributionTap(attrPtr.get());

    // The build fingerprint: netlist structure + engine options +
    // workload identity. Golden length and an output hash pin the
    // workload beyond its name, so a changed benchmark source changes
    // the fingerprint even if the name stays the same.
    uint64_t workload_hash = kFnv1a64Seed;
    workload_hash = fnv1aWord(enginePtr->goldenCycles(), workload_hash);
    for (uint32_t word : enginePtr->goldenOutput())
        workload_hash = fnv1aWord(word, workload_hash);
    std::ostringstream os;
    os << std::hex << netlistHash(socPtr->netlist()) << '-'
       << workload_hash << '-' << std::dec
       << serializeWorkspaceSpec(spec);
    fp = os.str();
    // Fingerprints embed in space-separated store keys and protocol
    // frames; keep them a single token.
    for (char &c : fp) {
        if (c == ' ')
            c = ':';
    }
}

const Structure &
Workspace::structure(const std::string &name) const
{
    const Structure *found = socPtr->structures().find(name);
    if (!found)
        davf_throw(ErrorKind::NotFound, "unknown structure '", name, "'");
    return *found;
}

} // namespace davf::service
