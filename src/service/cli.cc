#include "cli.hh"

#include <cstdio>

#include "campaign/supervisor.hh"
#include "isa/benchmarks.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/subprocess.hh"

namespace davf::service {

const char *
flagValue(int argc, char *const *argv, int &i)
{
    if (i + 1 >= argc)
        davf_throw(ErrorKind::BadArgument, argv[i], " expects a value");
    return argv[++i];
}

bool
parseWorkspaceFlag(int argc, char *const *argv, int &i,
                   WorkspaceSpec &spec)
{
    const std::string arg = argv[i];
    if (arg == "--benchmark") {
        spec.benchmark = flagValue(argc, argv, i);
        if (!findBenchmark(spec.benchmark)) {
            davf_throw(ErrorKind::BadArgument,
                       "--benchmark: unknown benchmark '", spec.benchmark,
                       "' (davf_run --list names them)");
        }
    } else if (arg == "--ecc") {
        spec.ecc = true;
    } else if (arg == "--sta-period") {
        spec.staPeriod = true;
    } else {
        return false;
    }
    return true;
}

QuerySpec
defaultQuery()
{
    QuerySpec query;
    query.delays = parseDelayRange("0.1:0.9:0.2");
    query.sampling.maxInjectionCycles = 8;
    query.sampling.maxWires = 400;
    query.sampling.maxFlops = 96;
    query.sampling.maxFailureRate = 0.05;
    return query;
}

bool
parseQueryFlag(int argc, char *const *argv, int &i, QuerySpec &query)
{
    if (parseWorkspaceFlag(argc, argv, i, query.workspace))
        return true;
    const std::string arg = argv[i];
    SamplingConfig &sampling = query.sampling;
    if (arg == "--structure") {
        query.structure = flagValue(argc, argv, i);
    } else if (arg == "--delays") {
        query.delays = parseDelayRange(flagValue(argc, argv, i));
    } else if (arg == "--savf") {
        query.runSavf = true;
    } else if (arg == "--attribution") {
        sampling.attribution = true;
    } else if (arg == "--cycles") {
        sampling.maxInjectionCycles = static_cast<unsigned>(
            parseU64Strict(flagValue(argc, argv, i), arg));
    } else if (arg == "--wires") {
        sampling.maxWires = static_cast<size_t>(
            parseU64Strict(flagValue(argc, argv, i), arg));
    } else if (arg == "--flops") {
        sampling.maxFlops = static_cast<size_t>(
            parseU64Strict(flagValue(argc, argv, i), arg));
    } else if (arg == "--seed") {
        sampling.seed = parseU64Strict(flagValue(argc, argv, i), arg);
    } else if (arg == "--timeout-ms") {
        sampling.injectionTimeoutMs =
            parseDoubleStrict(flagValue(argc, argv, i), arg);
        if (sampling.injectionTimeoutMs < 0.0)
            davf_throw(ErrorKind::BadArgument, "--timeout-ms must be >= 0");
    } else if (arg == "--max-failure-rate") {
        sampling.maxFailureRate =
            parseDoubleStrict(flagValue(argc, argv, i), arg);
        if (sampling.maxFailureRate < 0.0 || sampling.maxFailureRate > 1.0) {
            davf_throw(ErrorKind::BadArgument,
                       "--max-failure-rate must lie in [0, 1]");
        }
    } else {
        return false;
    }
    return true;
}

std::vector<double>
parseDelayRange(const std::string &text)
{
    const size_t first = text.find(':');
    const size_t second =
        first == std::string::npos ? first : text.find(':', first + 1);
    if (first == std::string::npos || second == std::string::npos
        || text.find(':', second + 1) != std::string::npos) {
        davf_throw(ErrorKind::BadArgument,
                   "--delays expects LO:HI:STEP, got '", text, "'");
    }
    const double lo = parseDoubleStrict(text.substr(0, first), "--delays LO");
    const double hi = parseDoubleStrict(
        text.substr(first + 1, second - first - 1), "--delays HI");
    const double step =
        parseDoubleStrict(text.substr(second + 1), "--delays STEP");
    if (lo > hi) {
        davf_throw(ErrorKind::BadArgument,
                   "--delays range is inverted: ", text);
    }
    if (lo < 0.0 || hi > 1.0) {
        davf_throw(ErrorKind::BadArgument,
                   "--delays fractions must lie in [0, 1]: ", text);
    }
    if (!(step > 0.0)) {
        davf_throw(ErrorKind::BadArgument,
                   "--delays STEP must be > 0: ", text);
    }

    std::vector<double> delays;
    for (double d = lo; d <= hi + 1e-9; d += step)
        delays.push_back(d);
    return delays;
}

CampaignOptions
queryCampaign(const QuerySpec &query)
{
    CampaignOptions campaign;
    campaign.benchmark = query.workspace.benchmark;
    campaign.structureLabel = query.workspace.ecc ? " (ECC)" : "";
    campaign.structures = {query.structure};
    campaign.delays = query.delays;
    campaign.runSavf = query.runSavf;
    campaign.sampling = query.sampling;
    campaign.maxFailureRate = query.sampling.maxFailureRate;
    return campaign;
}

bool
WorkerFlags::parse(int argc, char *const *argv, int &i)
{
    const std::string arg = argv[i];
    if (arg == "--worker-shard") {
        shard = true;
    } else if (arg == "--worker-period") {
        const char *value = flagValue(argc, argv, i);
        if (!textToPositiveHexDouble(value, period)) {
            davf_throw(ErrorKind::BadArgument,
                       "--worker-period expects a positive, finite "
                       "hexfloat, got '", value, "'");
        }
    } else {
        return false;
    }
    return true;
}

void
WorkerFlags::check(const WorkspaceSpec &spec) const
{
    if (period > 0.0 && (!shard || spec.staPeriod)) {
        davf_throw(ErrorKind::BadArgument, "--worker-period ",
                   shard ? "conflicts with --sta-period"
                         : "needs --worker-shard");
    }
}

WorkspaceOptions
WorkerFlags::workspaceOptions(unsigned threads) const
{
    return {.threads = threads, .measurePeriod = period == 0.0};
}

std::optional<int>
WorkerFlags::serve(Workspace &workspace) const
{
    VulnerabilityEngine &engine = workspace.engine();
    if (period > 0.0)
        engine.adoptClockPeriod(period);
    if (!shard)
        return std::nullopt;
    std::fprintf(stderr, "%s\n", goldenLine(engine).c_str());
    return runCampaignWorker(engine, workspace.structures());
}

std::vector<std::string>
WorkerFlags::commandLine(Workspace &workspace,
                         const std::vector<std::string> &args)
{
    const WorkspaceSpec &spec = workspace.spec();
    std::vector<std::string> argv = {Subprocess::selfExePath()};
    argv.insert(argv.end(), args.begin(), args.end());
    argv.insert(argv.end(), {"--benchmark", spec.benchmark});
    if (spec.ecc)
        argv.push_back("--ecc");
    argv.push_back("--worker-shard");
    if (spec.staPeriod) {
        argv.push_back("--sta-period");
    } else {
        argv.push_back("--worker-period");
        argv.push_back(hexDouble(workspace.engine().clockPeriod()));
    }
    return argv;
}

} // namespace davf::service
