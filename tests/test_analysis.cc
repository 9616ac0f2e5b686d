/**
 * @file
 * Tests for per-instruction root-cause attribution (src/analysis/ and
 * its SamplingConfig::attribution plumbing — docs/ANALYSIS.md):
 *
 *  - the RV32I(+M) disassembler used for attribution labels
 *    (round-tripped through the repo's own assembler, so the two can
 *    never drift on operand syntax);
 *  - the attr/attrtab journal grammar: outcome and result sections
 *    round-trip bit-exactly, percent-encoded mnemonics survive spaces
 *    and empty strings, damage is rejected, and unknown trailing
 *    tokens are left for the caller (the worker-reply rusage suffix);
 *  - the shard/query spec grammar: the trailing "attr" token
 *    round-trips, attribution-off text is byte-identical to the
 *    pre-flag grammar (the store-key stability guarantee), and junk
 *    after the token is rejected;
 *  - engine-level identity on a real IbexMini workspace: the
 *    attribution table is bit-identical across thread counts, enabling
 *    attribution does not perturb any non-attribution counter, and an
 *    interrupted --attribution campaign resumed at a different thread
 *    count reproduces the uninterrupted journal, CSV, and attribution
 *    CSV byte-for-byte (both interruption directions).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/analysis/disasm.hh"
#include "src/campaign/campaign.hh"
#include "src/campaign/checkpoint.hh"
#include "src/core/report.hh"
#include "src/core/shard.hh"
#include "src/core/vulnerability.hh"
#include "src/isa/assembler.hh"
#include "src/service/protocol.hh"
#include "src/service/workspace.hh"
#include "src/util/parse.hh"

namespace davf {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "davf_test_"
        + std::to_string(::getpid()) + "_" + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(file)) << path;
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------- disasm

TEST(Disasm, RoundTripsThroughTheAssembler)
{
    // Assemble canonical text and expect the disassembler to
    // reproduce it verbatim — operand order, the mem-operand
    // "offset(base)" form, and signed branch/jump byte offsets.
    const std::vector<std::string> lines = {
        "lw x1, 8(x2)",        "addi x5, x0, 42",
        "add x3, x1, x5",      "sub x3, x3, x1",
        "sw x3, 12(x2)",       "slli x6, x5, 3",
        "srai x6, x6, 1",      "mul x7, x5, x6",
        "andi x8, x7, 255",    "xor x9, x8, x7",
    };
    std::string source;
    for (const std::string &line : lines)
        source += line + "\n";
    const std::vector<uint32_t> image = assemble(source);
    ASSERT_EQ(image.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(analysis::disassemble(image[i]), lines[i]) << i;
}

TEST(Disasm, BranchesAndJumpsUseSignedByteOffsets)
{
    const std::vector<uint32_t> image = assemble("top:\n"
                                                 "  addi x5, x5, -1\n"
                                                 "  beq x5, x0, top\n"
                                                 "  jal x1, top\n");
    ASSERT_EQ(image.size(), 3u);
    EXPECT_EQ(analysis::disassemble(image[0]), "addi x5, x5, -1");
    EXPECT_EQ(analysis::disassemble(image[1]), "beq x5, x0, -4");
    EXPECT_EQ(analysis::disassemble(image[2]), "jal x1, -8");
}

TEST(Disasm, UnknownWordsRenderAsData)
{
    // The table must stay total over whatever the image holds.
    EXPECT_EQ(analysis::disassemble(0xffffffffu), ".word 0xffffffff");
    EXPECT_EQ(analysis::disassemble(0u), ".word 0x00000000");
    EXPECT_EQ(analysis::disassemble(0x00000073u), "ecall");
    // M-extension division (not in the assembler's source dialect).
    EXPECT_EQ(analysis::disassemble(0x025353b3u), "divu x7, x6, x5");
}

// ---------------------------------------------- attr journal grammar

InjectionCycleOutcome
outcomeWithAttr()
{
    InjectionCycleOutcome out;
    out.cycle = 17;
    out.injections = 40;
    out.errorInjections = 9;
    out.delayAce = 3;
    out.sdc = 2;
    out.due = 1;
    out.uniqueGroupSims = 9;
    out.wireDyn = {1, 0, 1};
    out.wireAce = {1, 0, 0};
    out.attr.valid = true;
    out.attr.pc = 0x40;
    out.attr.mnemonic = "lw x1, 8(x2)";
    out.attr.events = {{0x44, "addi x5, x0, 42", "x5", 2},
                       {0x48, "sw x3, 12(x2)", "mem", 1}};
    return out;
}

TEST(AttrGrammar, OutcomeSectionRoundTripsBitExactly)
{
    const InjectionCycleOutcome out = outcomeWithAttr();
    const std::string text = serializeOutcomeFields(out);
    EXPECT_NE(text.find(" attr "), std::string::npos) << text;

    std::istringstream is(text);
    InjectionCycleOutcome back;
    ASSERT_TRUE(parseOutcomeFields(is, back)) << text;
    EXPECT_EQ(back, out);

    // Attribution off: the section is absent and the bytes match the
    // pre-flag grammar, so old journals parse and old resumes match.
    InjectionCycleOutcome plain = out;
    plain.attr = CycleAttribution{};
    const std::string plain_text = serializeOutcomeFields(plain);
    EXPECT_EQ(plain_text.find("attr"), std::string::npos);
    EXPECT_EQ(text.rfind(plain_text, 0), 0u)
        << "attr must extend the line, not reshape it";
}

TEST(AttrGrammar, MnemonicsSurvivePercentEncoding)
{
    InjectionCycleOutcome out = outcomeWithAttr();
    out.attr.mnemonic = ""; // encoded as the lone "%" sentinel
    out.attr.events = {{0, "%weird 100% text%", "x1", 1},
                       {4, ".word 0xdeadbeef", "uarch", 2}};
    const std::string text = serializeOutcomeFields(out);
    EXPECT_EQ(text.find('\n'), std::string::npos) << text;

    std::istringstream is(text);
    InjectionCycleOutcome back;
    ASSERT_TRUE(parseOutcomeFields(is, back)) << text;
    EXPECT_EQ(back, out);
}

TEST(AttrGrammar, DamagedSectionsAreRejected)
{
    const std::string text = serializeOutcomeFields(outcomeWithAttr());
    // Truncations inside the attr section must never yield a
    // *different* attribution than the intact bytes: either the parse
    // fails, or it returns the full outcome, or — when the cut makes
    // the tail an unknown token the parser leaves for its caller —
    // the attribution-free outcome (the caller's trailing-token check
    // then rejects the leftover, as the scheduler and journal do).
    InjectionCycleOutcome plain = outcomeWithAttr();
    plain.attr = CycleAttribution{};
    const size_t attr_at = text.find(" attr ");
    ASSERT_NE(attr_at, std::string::npos);
    for (size_t len = attr_at + 1; len < text.size(); ++len) {
        std::istringstream is(text.substr(0, len));
        InjectionCycleOutcome torn;
        if (parseOutcomeFields(is, torn)) {
            EXPECT_TRUE(torn == outcomeWithAttr() || torn == plain)
                << len;
        }
    }
    // A non-numeric event count is damage.
    std::string garbled = text;
    garbled.replace(garbled.find(" attr ") + 6, 0, "x");
    std::istringstream is(garbled);
    InjectionCycleOutcome out;
    EXPECT_FALSE(parseOutcomeFields(is, out));
}

TEST(AttrGrammar, UnknownTailIsLeftForTheCaller)
{
    // The process-isolation worker reply appends a rusage suffix after
    // the outcome fields; the outcome parser must leave it unread
    // (with and without an attr section) for the supervisor to parse.
    for (const bool with_attr : {false, true}) {
        InjectionCycleOutcome out = outcomeWithAttr();
        if (!with_attr)
            out.attr = CycleAttribution{};
        std::istringstream is(serializeOutcomeFields(out)
                              + " rss 1234 0.5 0.25");
        InjectionCycleOutcome back;
        ASSERT_TRUE(parseOutcomeFields(is, back)) << with_attr;
        EXPECT_EQ(back, out);
        std::string tag;
        ASSERT_TRUE(static_cast<bool>(is >> tag)) << with_attr;
        EXPECT_EQ(tag, "rss");
    }
}

// ---------------------------------------------------- spec grammar

TEST(AttrGrammar, ShardSpecAttrTokenRoundTrips)
{
    ShardSpec spec;
    spec.structure = "ALU";
    spec.delayFraction = 0.5;
    spec.cycle = 9;
    spec.sampling.maxInjectionCycles = 4;
    spec.sampling.maxWires = 60;

    const std::string off = serializeShardSpec(spec);
    EXPECT_EQ(off.find("attr"), std::string::npos);

    spec.sampling.attribution = true;
    const std::string on = serializeShardSpec(spec);
    // Append-only extension: the attribution-off text (= the store
    // key) is byte-identical to the pre-flag grammar.
    EXPECT_EQ(on, off + " attr");

    const Result<ShardSpec> back = parseShardSpec(on);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_TRUE(back.value().sampling.attribution);
    EXPECT_EQ(serializeShardSpec(back.value()), on);

    const Result<ShardSpec> plain = parseShardSpec(off);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().sampling.attribution);

    EXPECT_FALSE(parseShardSpec(on + " junk").ok());
    EXPECT_FALSE(parseShardSpec(off + " junk").ok());
}

TEST(AttrGrammar, QuerySpecAttrTokenRoundTrips)
{
    service::QuerySpec query;
    query.structure = "ALU";
    query.delays = {0.5, 0.7};
    query.sampling.maxInjectionCycles = 4;

    const std::string off = service::serializeQuerySpec(query);
    EXPECT_EQ(off.find("attr"), std::string::npos);

    query.sampling.attribution = true;
    const std::string on = service::serializeQuerySpec(query);
    EXPECT_EQ(on, off + " attr");

    const auto back = service::parseQuerySpec(on);
    ASSERT_TRUE(back.ok()) << back.error().what();
    EXPECT_TRUE(back.value().sampling.attribution);
    EXPECT_EQ(service::serializeQuerySpec(back.value()), on);

    const auto plain = service::parseQuerySpec(off);
    ASSERT_TRUE(plain.ok());
    EXPECT_FALSE(plain.value().sampling.attribution);

    EXPECT_FALSE(service::parseQuerySpec(on + " junk").ok());
}

TEST(AttrGrammar, ConfigHashSeparatesAttributionCampaigns)
{
    // Attribution changes what a campaign computes, so it must fence
    // resume compatibility — but the attribution-off hash has to match
    // pre-flag journals, which is why the token is append-only.
    CampaignOptions options;
    options.benchmark = "popcount";
    options.structures = {"ALU"};
    options.delays = {0.5};
    const std::string off = campaignConfigHash(options);
    options.sampling.attribution = true;
    const std::string on = campaignConfigHash(options);
    EXPECT_NE(on, off);
    options.sampling.attribution = false;
    EXPECT_EQ(campaignConfigHash(options), off);
}

// ------------------------------------------------- engine identity

/** One shared IbexMini workspace (built once; popcount is the
 *  smallest benchmark with a non-trivial instruction mix). */
service::Workspace &
workspace()
{
    static service::Workspace *ws = [] {
        service::WorkspaceSpec spec;
        spec.benchmark = "popcount";
        return new service::Workspace(spec);
    }();
    return *ws;
}

SamplingConfig
smallSampling()
{
    SamplingConfig config;
    config.maxInjectionCycles = 3;
    config.maxWires = 40;
    config.maxFlops = 16;
    config.seed = 1;
    config.attribution = true;
    return config;
}

/** Bit-exact comparable text form of a full DelayAVF result: every
 *  reported field, doubles as hexfloats, then the attribution table. */
std::string
resultText(const DelayAvfResult &result)
{
    std::ostringstream os;
    for (double value :
         {result.delayAvf, result.orDelayAvf, result.staticWireFraction,
          result.dynamicWireFraction, result.groupAceWireFraction}) {
        os << hexDouble(value) << ' ';
    }
    for (uint64_t value :
         {result.injections, result.staticInjections,
          result.errorInjections, result.multiBitInjections,
          result.delayAceInjections, result.orAceInjections, result.sdc,
          result.due, result.aceInterference, result.aceCompounding,
          result.skippedNoToggle, result.uniqueGroupSims,
          result.skippedErrors, uint64_t(result.wiresInjected),
          uint64_t(result.cyclesInjected)}) {
        os << value << ' ';
    }
    for (const auto &[reason, count] : result.skipReasons)
        os << reason << '=' << count << ' ';
    os << '\n' << attributionCsvRows("popcount", "ALU", 0.5, result);
    return os.str();
}

TEST(AttrEngine, TableIsBitIdenticalAcrossThreadCounts)
{
    service::Workspace &ws = workspace();
    const Structure &alu = ws.structure("ALU");

    SamplingConfig config = smallSampling();
    config.threads = 1;
    const DelayAvfResult one = ws.engine().delayAvf(alu, 0.5, config);
    config.threads = 4;
    const DelayAvfResult four = ws.engine().delayAvf(alu, 0.5, config);

    ASSERT_TRUE(one.attrValid);
    ASSERT_FALSE(one.attribution.empty());
    EXPECT_EQ(resultText(one), resultText(four));
    EXPECT_EQ(one.attribution, four.attribution);

    // The same table flows into the CSV and JSON report surfaces.
    EXPECT_EQ(attributionCsvRows("popcount", "ALU", 0.5, one),
              attributionCsvRows("popcount", "ALU", 0.5, four));
    EXPECT_NE(delayAvfJson("popcount", "ALU", 0.5, one)
                  .find("\"attribution\":["),
              std::string::npos);
}

TEST(AttrEngine, AttributionDoesNotPerturbTheCounters)
{
    // Divergence walks ride outside the counted simulations, so every
    // non-attribution field must match an attribution-off run exactly
    // (the per-structure byte-identity acceptance bar).
    service::Workspace &ws = workspace();
    const Structure &alu = ws.structure("ALU");

    SamplingConfig config = smallSampling();
    config.threads = 2;
    DelayAvfResult with = ws.engine().delayAvf(alu, 0.5, config);
    config.attribution = false;
    const DelayAvfResult without = ws.engine().delayAvf(alu, 0.5, config);

    ASSERT_TRUE(with.attrValid);
    EXPECT_FALSE(without.attrValid);
    with.attrValid = false;
    with.attribution.clear();
    EXPECT_EQ(resultText(with), resultText(without));
}

/** Run one small --attribution campaign; returns its summary. */
CampaignSummary
runAttrCampaign(unsigned threads, const std::string &ckpt,
                const std::string &csv, bool resume,
                const std::atomic<bool> *stop = nullptr,
                std::function<void()> on_saved = nullptr)
{
    service::Workspace &ws = workspace();
    CampaignOptions opts;
    opts.benchmark = "popcount";
    opts.structures = {"ALU"};
    opts.delays = {0.5, 0.7};
    opts.runSavf = false;
    opts.sampling = smallSampling();
    opts.sampling.threads = threads;
    opts.checkpointPath = ckpt;
    opts.csvPath = csv;
    opts.resume = resume;
    opts.stopFlag = stop;
    opts.onCheckpointSaved = std::move(on_saved);
    Campaign campaign(ws.engine(), ws.structures(), opts);
    return campaign.run();
}

TEST(AttrEngine, InterruptedResumeReproducesTablesByteForByte)
{
    const std::string ref_ckpt = tempPath("attr_ref.ckpt");
    const std::string ref_csv = tempPath("attr_ref.csv");

    // Reference: uninterrupted, 1 thread.
    {
        const CampaignSummary summary =
            runAttrCampaign(1, ref_ckpt, ref_csv, false);
        EXPECT_FALSE(summary.interrupted);
        EXPECT_EQ(summary.cellsFailed, 0u);
    }
    const std::string ref_journal = slurp(ref_ckpt);
    const std::string ref_attr_csv = slurp(ref_csv + ".attr");
    EXPECT_NE(ref_journal.find(" attr "), std::string::npos);
    EXPECT_NE(ref_attr_csv.find("popcount"), std::string::npos);

    // Both interruption directions: cut at one thread count, resume
    // at another; journal, CSV, and attribution CSV must all equal
    // the uninterrupted reference byte-for-byte.
    struct Direction { unsigned cutThreads, resumeThreads; };
    for (const Direction dir : {Direction{1, 4}, Direction{4, 1}}) {
        const std::string tag = std::to_string(dir.cutThreads) + "to"
            + std::to_string(dir.resumeThreads);
        const std::string cut_ckpt = tempPath("attr_" + tag + ".ckpt");
        const std::string cut_csv = tempPath("attr_" + tag + ".csv");

        std::atomic<bool> stop{false};
        uint64_t saves = 0;
        const CampaignSummary cut = runAttrCampaign(
            dir.cutThreads, cut_ckpt, cut_csv, false, &stop, [&] {
                if (++saves == 2)
                    stop.store(true);
            });
        EXPECT_TRUE(cut.interrupted) << tag;
        ASSERT_GE(saves, 2u) << tag;

        const CampaignSummary resumed = runAttrCampaign(
            dir.resumeThreads, cut_ckpt, cut_csv, true);
        EXPECT_FALSE(resumed.interrupted) << tag;
        EXPECT_EQ(slurp(cut_ckpt), ref_journal) << tag;
        EXPECT_EQ(slurp(cut_csv), slurp(ref_csv)) << tag;
        EXPECT_EQ(slurp(cut_csv + ".attr"), ref_attr_csv) << tag;

        for (const std::string &path :
             {cut_ckpt, cut_csv, cut_csv + ".attr"})
            std::remove(path.c_str());
    }

    // Resuming the complete journal recomputes nothing and rewrites
    // the same bytes.
    {
        const CampaignSummary summary =
            runAttrCampaign(2, ref_ckpt, ref_csv, true);
        EXPECT_EQ(summary.cellsComputed, 0u);
        EXPECT_EQ(summary.cellsFromCheckpoint, 2u);
        EXPECT_EQ(slurp(ref_ckpt), ref_journal);
        EXPECT_EQ(slurp(ref_csv + ".attr"), ref_attr_csv);
    }

    for (const std::string &path :
         {ref_ckpt, ref_csv, ref_csv + ".attr"})
        std::remove(path.c_str());
}

TEST(AttrEngine, JournalRoundTripsAttributionTables)
{
    // A cell's journaled outcomes carry their attribution sections, so
    // the table derived from the parsed journal is the engine's own:
    // resume and davf_trace attr rebuild tables, nothing stores them.
    service::Workspace &ws = workspace();
    DelayAvfProgress progress;
    const DelayAvfResult result = ws.engine().delayAvf(
        ws.structure("ALU"), 0.5, smallSampling(), &progress);
    ASSERT_TRUE(result.attrValid);

    Checkpoint checkpoint;
    checkpoint.configHash = "test";
    CheckpointCell cell;
    cell.key = {"davf", "popcount", "ALU", canonicalDelay(0.5)};
    cell.state = CheckpointCell::State::Ok;
    for (const InjectionCycleOutcome &outcome : progress.completed)
        cell.addCycle(outcome);
    checkpoint.cells.push_back(cell);
    const std::string text = serializeCheckpoint(checkpoint);
    EXPECT_NE(text.find(" attr "), std::string::npos);

    const Result<Checkpoint> back = parseCheckpoint(text);
    ASSERT_TRUE(back.ok()) << back.error().what();
    ASSERT_EQ(back.value().cells.size(), 1u);
    const std::vector<InjectionCycleOutcome> &cycles =
        back.value().cells[0].cycles;
    const auto table = attributionTable(cycles);
    ASSERT_TRUE(table.has_value());
    EXPECT_EQ(*table, result.attribution);
    EXPECT_EQ(serializeCheckpoint(back.value()), text);

    // One outcome without attribution voids the table, as it voids the
    // aggregate's.
    std::vector<InjectionCycleOutcome> unattributed = cycles;
    unattributed.back().attr = {};
    EXPECT_FALSE(attributionTable(unattributed).has_value());
    EXPECT_FALSE(attributionTable({}).has_value());
}

std::string
tool(const std::string &name)
{
    return std::string(DAVF_TOOLS_DIR) + "/" + name;
}

/** The attribution-table lines of a tool's output (column header, one
 *  line per instruction, one per destination), each with @p indent
 *  stripped; lines without it are skipped. */
std::vector<std::string>
tableLines(const std::string &text, const std::string &indent)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) {
        if (line.compare(0, indent.size(), indent) != 0)
            continue;
        line.erase(0, indent.size());
        if (line.rfind("pc ", 0) == 0 || line.rfind("0x", 0) == 0
            || line.rfind(std::string(12, ' ') + "  -> ", 0) == 0)
            lines.push_back(line);
    }
    return lines;
}

TEST(AttrTools, TraceAttrPrintsTheTablesDavfRunPrints)
{
    // davf_trace attr derives each table from the journaled outcomes;
    // it must print the rows davf_run printed for the same campaign
    // (indented by two spaces under a per-cell heading).
    const std::string ckpt = tempPath("tools_attr.ckpt");
    const std::string run_out = tempPath("tools_attr_run.txt");
    const std::string trace_out = tempPath("tools_attr_trace.txt");
    ASSERT_EQ(std::system((tool("davf_run")
                           + " --benchmark popcount --structure ALU"
                             " --delays 0.5:0.7:0.2 --cycles 3 --wires 40"
                             " --attribution --checkpoint "
                           + ckpt + " > " + run_out + " 2> /dev/null")
                              .c_str()),
              0);
    ASSERT_EQ(std::system((tool("davf_trace") + " attr --checkpoint "
                           + ckpt + " > " + trace_out)
                              .c_str()),
              0);
    const std::string run_text = slurp(run_out);
    const std::string trace_text = slurp(trace_out);
    const std::vector<std::string> rows = tableLines(run_text, "");
    EXPECT_GT(rows.size(), 4u) << run_text;
    EXPECT_EQ(tableLines(trace_text, "  "), rows) << trace_text;
    // One table per delay.
    size_t tables = 0;
    for (size_t at = trace_text.find("popcount ALU d=");
         at != std::string::npos;
         at = trace_text.find("popcount ALU d=", at + 1))
        ++tables;
    EXPECT_EQ(tables, 2u) << trace_text;
    for (const std::string &path : {ckpt, run_out, trace_out})
        std::remove(path.c_str());
}

} // namespace
} // namespace davf
