/**
 * @file
 * The Beebs-like benchmark workloads of the case study (§VI-A).
 *
 * The paper evaluates five applications from the Beebs embedded benchmark
 * suite: md5, bubblesort, libstrstr, libfibcall, and matmult. Each is
 * reimplemented here in RV32I assembly (see isa/assembler.hh), scaled so a
 * full execution takes on the order of a thousand cycles on the 2-stage
 * IbexMini core — the same order as the paper's Table II. Each program
 * writes its results to the MMIO output port and then halts; the output
 * trace is the program-visible behaviour that DelayAVF compares.
 *
 * Expected outputs are computed independently in C++ (e.g. md5 against a
 * from-scratch MD5 implementation), so ISS and gate-level runs are
 * validated against ground truth rather than against each other.
 */

#ifndef DAVF_ISA_BENCHMARKS_HH
#define DAVF_ISA_BENCHMARKS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace davf {

/** One benchmark program: source, plus its architecturally
 *  correct output trace. */
struct BenchmarkProgram
{
    std::string name;
    std::string source;
    std::vector<uint32_t> expectedOutput;
};

/** All five Beebs-like benchmarks, in the paper's order. */
const std::vector<BenchmarkProgram> &beebsBenchmarks();

/**
 * Additional workloads beyond the paper's five (extensions): crc32
 * (bitwise CRC-32 over a string) and popcount (software bit counting
 * over an LFSR stream). Useful for studying benchmark sensitivity
 * beyond the paper's suite.
 */
const std::vector<BenchmarkProgram> &extraBenchmarks();

/** Look up one benchmark by name (paper suite first, then extras);
 *  null if unknown. */
const BenchmarkProgram *findBenchmark(const std::string &name);

/** findBenchmark(), throwing DavfError{NotFound} if unknown. */
const BenchmarkProgram &beebsBenchmark(const std::string &name);

/**
 * Reference MD5 of a single pre-padded 64-byte block.
 *
 * @param block the 16 message words.
 * @return the four chaining words (A, B, C, D) after the block.
 */
std::vector<uint32_t> md5SingleBlock(const std::vector<uint32_t> &block);

} // namespace davf

#endif // DAVF_ISA_BENCHMARKS_HH
