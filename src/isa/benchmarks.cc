#include "benchmarks.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/logging.hh"

namespace davf {

namespace {

/** Rotate left. */
uint32_t
rotl(uint32_t value, unsigned amount)
{
    return amount == 0 ? value
                       : (value << amount) | (value >> (32 - amount));
}

/** MD5 per-round shift amounts. */
constexpr unsigned kMd5Shifts[64] = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
};

/** MD5 sine-derived constants. */
std::vector<uint32_t>
md5Constants()
{
    std::vector<uint32_t> k(64);
    for (unsigned i = 0; i < 64; ++i)
        k[i] = static_cast<uint32_t>(
            std::floor(std::fabs(std::sin(double(i) + 1.0)) * 4294967296.0));
    return k;
}

/** Pack a C string (with terminating NUL) into little-endian words. */
std::vector<uint32_t>
packString(const std::string &text)
{
    std::vector<uint32_t> words((text.size() + 1 + 3) / 4, 0);
    for (size_t i = 0; i < text.size(); ++i)
        words[i / 4] |= uint32_t{uint8_t(text[i])} << ((i % 4) * 8);
    return words;
}

/** Emit a .word directive for a list of values. */
void
emitWords(std::ostringstream &out, const std::vector<uint32_t> &words)
{
    for (size_t i = 0; i < words.size(); ++i) {
        if (i % 8 == 0)
            out << (i ? "\n" : "") << "  .word ";
        else
            out << ", ";
        out << "0x" << std::hex << words[i] << std::dec;
    }
    out << "\n";
}

/** Shared epilogue: t6 must hold the MMIO base. */
constexpr const char *kHaltEpilogue = R"(
  sw x0, 4(t6)
hang:
  j hang
)";

// ---------------------------------------------------------------------
// bubblesort
// ---------------------------------------------------------------------

BenchmarkProgram
makeBubblesort()
{
    const std::vector<uint32_t> data = {829, 12,  9999, 3,   77,  500,
                                        1,   250, 42,   613, 88,  4096};
    std::vector<uint32_t> sorted = data;
    std::sort(sorted.begin(), sorted.end());

    std::ostringstream out;
    out << R"(
# Beebs bubblesort: in-place sort of a word array, then print it.
main:
  la a0, array
  li a1, )" << data.size() << R"(
  addi t0, a1, -1        # i = n-1
outer:
  beqz t0, print
  li t1, 0               # j = 0
inner:
  bge t1, t0, outer_next
  slli t3, t1, 2
  add t3, t3, a0
  lw t4, 0(t3)
  lw t5, 4(t3)
  bleu t4, t5, noswap
  sw t5, 0(t3)
  sw t4, 4(t3)
noswap:
  addi t1, t1, 1
  j inner
outer_next:
  addi t0, t0, -1
  j outer
print:
  li t6, 0x10000
  li t1, 0
ploop:
  bge t1, a1, end
  slli t3, t1, 2
  add t3, t3, a0
  lw t4, 0(t3)
  sw t4, 0(t6)
  addi t1, t1, 1
  j ploop
end:)" << kHaltEpilogue << "array:\n";
    emitWords(out, data);

    return {"bubblesort", out.str(), sorted};
}

// ---------------------------------------------------------------------
// libfibcall
// ---------------------------------------------------------------------

BenchmarkProgram
makeFibcall()
{
    const unsigned n = 9;
    auto fib = [](auto &&self, unsigned v) -> uint32_t {
        return v < 2 ? v : self(self, v - 1) + self(self, v - 2);
    };

    std::ostringstream out;
    out << R"(
# Beebs libfibcall: naive recursive Fibonacci (exercises call stack).
main:
  li sp, 0xff00
  li a0, )" << n << R"(
  call fib
  li t6, 0x10000
  sw a0, 0(t6))" << kHaltEpilogue << R"(
fib:
  li t0, 2
  blt a0, t0, fib_base
  addi sp, sp, -12
  sw ra, 0(sp)
  sw s0, 4(sp)
  mv s0, a0
  addi a0, a0, -1
  call fib
  sw a0, 8(sp)
  addi a0, s0, -2
  call fib
  lw t0, 8(sp)
  add a0, a0, t0
  lw ra, 0(sp)
  lw s0, 4(sp)
  addi sp, sp, 12
  ret
fib_base:
  ret
)";
    return {"libfibcall", out.str(), {fib(fib, n)}};
}

// ---------------------------------------------------------------------
// libstrstr
// ---------------------------------------------------------------------

BenchmarkProgram
makeStrstr()
{
    const std::string text = "the small delay fault escaped the tester";
    const std::string pat1 = "delay";     // Present.
    const std::string pat2 = "particle";  // Absent.
    const std::string pat3 = "tester";    // Present near the end.

    auto naive = [](const std::string &haystack,
                    const std::string &needle) -> uint32_t {
        const size_t pos = haystack.find(needle);
        return pos == std::string::npos ? 0xffffffffu
                                        : static_cast<uint32_t>(pos);
    };

    std::ostringstream out;
    out << R"(
# Beebs libstrstr: naive substring search with byte loads.
main:
  li t6, 0x10000
  la a0, text
  la a1, pat1
  call strstr
  sw a0, 0(t6)
  la a0, text
  la a1, pat2
  call strstr
  sw a0, 0(t6)
  la a0, text
  la a1, pat3
  call strstr
  sw a0, 0(t6))" << kHaltEpilogue << R"(
strstr:                  # a0 = haystack, a1 = needle -> index or -1
  mv t0, a0
sloop:
  mv t2, t0
  mv t3, a1
mloop:
  lbu t4, 0(t3)
  beqz t4, found
  lbu t5, 0(t2)
  beqz t5, notfound
  bne t4, t5, snext
  addi t2, t2, 1
  addi t3, t3, 1
  j mloop
snext:
  lbu t5, 0(t0)
  beqz t5, notfound
  addi t0, t0, 1
  j sloop
found:
  sub a0, t0, a0
  ret
notfound:
  li a0, -1
  ret
text:
)";
    emitWords(out, packString(text));
    out << "pat1:\n";
    emitWords(out, packString(pat1));
    out << "pat2:\n";
    emitWords(out, packString(pat2));
    out << "pat3:\n";
    emitWords(out, packString(pat3));

    return {"libstrstr", out.str(),
            {naive(text, pat1), naive(text, pat2), naive(text, pat3)}};
}

// ---------------------------------------------------------------------
// matmult
// ---------------------------------------------------------------------

BenchmarkProgram
makeMatmult()
{
    constexpr unsigned n = 4;
    const uint32_t a[n][n] = {{3, 141, 59, 26},
                              {53, 58, 97, 93},
                              {23, 84, 62, 64},
                              {33, 83, 27, 95}};
    const uint32_t b[n][n] = {{2, 71, 82, 81},
                              {28, 45, 90, 45},
                              {23, 53, 60, 28},
                              {74, 71, 35, 66}};
    uint32_t c[n][n] = {};
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            for (unsigned k = 0; k < n; ++k)
                c[i][j] += a[i][k] * b[k][j];
        }
    }
    std::vector<uint32_t> expected;
    uint32_t checksum = 0;
    for (unsigned i = 0; i < n; ++i)
        for (unsigned j = 0; j < n; ++j)
            checksum += c[i][j];
    expected.push_back(checksum);
    for (unsigned i = 0; i < n; ++i)
        expected.push_back(c[i][i]);

    std::vector<uint32_t> a_words;
    std::vector<uint32_t> b_words;
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned j = 0; j < n; ++j) {
            a_words.push_back(a[i][j]);
            b_words.push_back(b[i][j]);
        }
    }

    std::ostringstream out;
    out << R"(
# Beebs matmult: integer matrix multiply with a software
# shift-and-add multiplier (the core has no M extension).
main:
  li sp, 0xff00
  la s8, mata
  la s9, matb
  la s10, matc
  li s11, )" << n << R"(
  li s2, 0               # i
iloop:
  bge s2, s11, report
  li s3, 0               # j
jloop:
  bge s3, s11, inext
  li s5, 0               # acc
  li s4, 0               # k
kloop:
  bge s4, s11, kdone
  # a0 = A[i][k]
  slli t0, s2, 2
  add t0, t0, s4
  slli t0, t0, 2
  add t0, t0, s8
  lw a0, 0(t0)
  # a1 = B[k][j]
  slli t0, s4, 2
  add t0, t0, s3
  slli t0, t0, 2
  add t0, t0, s9
  lw a1, 0(t0)
  call mul8
  add s5, s5, a0
  addi s4, s4, 1
  j kloop
kdone:
  # C[i][j] = acc
  slli t0, s2, 2
  add t0, t0, s3
  slli t0, t0, 2
  add t0, t0, s10
  sw s5, 0(t0)
  addi s3, s3, 1
  j jloop
inext:
  addi s2, s2, 1
  j iloop
report:
  li t6, 0x10000
  # checksum of all entries
  li t0, 0               # sum
  li t1, 0               # index
  li t2, )" << (n * n) << R"(
csum:
  bge t1, t2, diag
  slli t3, t1, 2
  add t3, t3, s10
  lw t4, 0(t3)
  add t0, t0, t4
  addi t1, t1, 1
  j csum
diag:
  sw t0, 0(t6)
  li t1, 0
dloop:
  bge t1, s11, end
  # word offset of C[t1][t1] = 4 * (n*t1 + t1), n = 4
  slli t3, t1, 2
  add t3, t3, t1
  slli t3, t3, 2
  add t3, t3, s10
  lw t4, 0(t3)
  sw t4, 0(t6)
  addi t1, t1, 1
  j dloop
end:)" << kHaltEpilogue << R"(
mul8:                    # a0 * a1 (a1 < 256) -> a0
  li t0, 0
  li t1, 8
mul_loop:
  andi t2, a1, 1
  beqz t2, mul_skip
  add t0, t0, a0
mul_skip:
  slli a0, a0, 1
  srli a1, a1, 1
  addi t1, t1, -1
  bnez t1, mul_loop
  mv a0, t0
  ret
mata:
)";
    emitWords(out, a_words);
    out << "matb:\n";
    emitWords(out, b_words);
    out << "matc:\n  .space " << (n * n * 4) << "\n";

    return {"matmult", out.str(), expected};
}

// ---------------------------------------------------------------------
// md5
// ---------------------------------------------------------------------

BenchmarkProgram
makeMd5()
{
    // A single pre-padded block holding the message "abc".
    std::vector<uint32_t> block(16, 0);
    block[0] = 0x80636261; // 'a' 'b' 'c' 0x80
    block[14] = 24;        // Message length in bits.

    const std::vector<uint32_t> expected = md5SingleBlock(block);
    const std::vector<uint32_t> k = md5Constants();
    std::vector<uint32_t> shifts(kMd5Shifts, kMd5Shifts + 64);

    std::ostringstream out;
    out << R"(
# Beebs md5: one MD5 compression block (highly irregular dataflow,
# the paper's high-toggle-rate workload).
main:
  la s5, ktab
  la s6, stab
  la s7, msg
  li s0, 0x67452301      # a
  li s1, 0xefcdab89      # b
  li s2, 0x98badcfe      # c
  li s3, 0x10325476      # d
  li s4, 0               # i
round:
  li t0, 16
  blt s4, t0, q0
  li t0, 32
  blt s4, t0, q1
  li t0, 48
  blt s4, t0, q2
  # q3: f = c ^ (b | ~d); g = (7*i) & 15
  not t1, s3
  or t1, s1, t1
  xor t1, s2, t1
  slli t2, s4, 3
  sub t2, t2, s4
  andi t2, t2, 15
  j rjoin
q0:
  # f = (b & c) | (~b & d); g = i
  and t1, s1, s2
  not t2, s1
  and t2, t2, s3
  or t1, t1, t2
  mv t2, s4
  j rjoin
q1:
  # f = (d & b) | (~d & c); g = (5*i + 1) & 15
  and t1, s3, s1
  not t2, s3
  and t2, t2, s2
  or t1, t1, t2
  slli t2, s4, 2
  add t2, t2, s4
  addi t2, t2, 1
  andi t2, t2, 15
  j rjoin
q2:
  # f = b ^ c ^ d; g = (3*i + 5) & 15
  xor t1, s1, s2
  xor t1, t1, s3
  slli t2, s4, 1
  add t2, t2, s4
  addi t2, t2, 5
  andi t2, t2, 15
rjoin:
  # F = f + a + K[i] + M[g]
  add t1, t1, s0
  slli t3, s4, 2
  add t3, t3, s5
  lw t3, 0(t3)
  add t1, t1, t3
  slli t3, t2, 2
  add t3, t3, s7
  lw t3, 0(t3)
  add t1, t1, t3
  # rotate left by S[i]
  slli t3, s4, 2
  add t3, t3, s6
  lw t3, 0(t3)
  sll t4, t1, t3
  li t5, 32
  sub t5, t5, t3
  srl t1, t1, t5
  or t1, t4, t1
  # (a, b, c, d) = (d, b + rot, b, c)
  mv t4, s3
  mv s3, s2
  mv s2, s1
  add s1, s1, t1
  mv s0, t4
  addi s4, s4, 1
  li t0, 64
  blt s4, t0, round
  # Add the initial chaining values and report.
  li t0, 0x67452301
  add s0, s0, t0
  li t0, 0xefcdab89
  add s1, s1, t0
  li t0, 0x98badcfe
  add s2, s2, t0
  li t0, 0x10325476
  add s3, s3, t0
  li t6, 0x10000
  sw s0, 0(t6)
  sw s1, 0(t6)
  sw s2, 0(t6)
  sw s3, 0(t6))" << kHaltEpilogue << "ktab:\n";
    emitWords(out, k);
    out << "stab:\n";
    emitWords(out, shifts);
    out << "msg:\n";
    emitWords(out, block);

    return {"md5", out.str(), expected};
}

// ---------------------------------------------------------------------
// crc32 (extension workload)
// ---------------------------------------------------------------------

BenchmarkProgram
makeCrc32()
{
    const std::string message = "delay faults corrupt silently";

    auto reference = [](const std::string &text) -> uint32_t {
        uint32_t crc = 0xffffffff;
        for (unsigned char c : text) {
            crc ^= c;
            for (int bit = 0; bit < 8; ++bit) {
                const uint32_t lsb = crc & 1;
                crc >>= 1;
                if (lsb)
                    crc ^= 0xedb88320;
            }
        }
        return ~crc;
    };

    std::ostringstream out;
    out << R"(
# crc32: bitwise CRC-32 of a NUL-terminated string.
main:
  la a0, text
  li a1, -1              # crc = 0xffffffff
  li a3, 0xedb88320
byte_loop:
  lbu t0, 0(a0)
  beqz t0, finish
  xor a1, a1, t0
  li t1, 8
bit_loop:
  andi t2, a1, 1
  srli a1, a1, 1
  beqz t2, no_poly
  xor a1, a1, a3
no_poly:
  addi t1, t1, -1
  bnez t1, bit_loop
  addi a0, a0, 1
  j byte_loop
finish:
  not a1, a1
  li t6, 0x10000
  sw a1, 0(t6))" << kHaltEpilogue << "text:\n";
    emitWords(out, packString(message));

    return {"crc32", out.str(), {reference(message)}};
}

// ---------------------------------------------------------------------
// popcount (extension workload)
// ---------------------------------------------------------------------

BenchmarkProgram
makePopcount()
{
    // Software popcount over a 16-bit Galois LFSR stream.
    constexpr unsigned kRounds = 24;
    uint32_t lfsr = 0xace1;
    uint32_t total = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        uint32_t value = lfsr;
        while (value) {
            total += value & 1;
            value >>= 1;
        }
        const uint32_t lsb = lfsr & 1;
        lfsr >>= 1;
        if (lsb)
            lfsr ^= 0xb400;
    }

    std::ostringstream out;
    out << R"(
# popcount: count set bits across a 16-bit LFSR stream.
main:
  li a0, 0xace1          # lfsr
  li a1, 0               # total
  li a2, )" << kRounds << R"(
  li a3, 0xb400
round:
  mv t0, a0              # value = lfsr
pop_loop:
  beqz t0, pop_done
  andi t1, t0, 1
  add a1, a1, t1
  srli t0, t0, 1
  j pop_loop
pop_done:
  andi t1, a0, 1
  srli a0, a0, 1
  beqz t1, no_tap
  xor a0, a0, a3
no_tap:
  addi a2, a2, -1
  bnez a2, round
  li t6, 0x10000
  sw a1, 0(t6))" << kHaltEpilogue;

    return {"popcount", out.str(), {total}};
}

} // namespace

std::vector<uint32_t>
md5SingleBlock(const std::vector<uint32_t> &block)
{
    davf_assert(block.size() == 16, "md5 block must be 16 words");
    const std::vector<uint32_t> k = md5Constants();
    uint32_t a = 0x67452301;
    uint32_t b = 0xefcdab89;
    uint32_t c = 0x98badcfe;
    uint32_t d = 0x10325476;
    for (unsigned i = 0; i < 64; ++i) {
        uint32_t f;
        unsigned g;
        if (i < 16) {
            f = (b & c) | (~b & d);
            g = i;
        } else if (i < 32) {
            f = (d & b) | (~d & c);
            g = (5 * i + 1) & 15;
        } else if (i < 48) {
            f = b ^ c ^ d;
            g = (3 * i + 5) & 15;
        } else {
            f = c ^ (b | ~d);
            g = (7 * i) & 15;
        }
        const uint32_t rotated = rotl(f + a + k[i] + block[g],
                                      kMd5Shifts[i]);
        a = d;
        d = c;
        c = b;
        b = b + rotated;
    }
    return {a + 0x67452301, b + 0xefcdab89, c + 0x98badcfe,
            d + 0x10325476};
}

const std::vector<BenchmarkProgram> &
beebsBenchmarks()
{
    static const std::vector<BenchmarkProgram> programs = {
        makeMd5(),      makeBubblesort(), makeStrstr(),
        makeFibcall(),  makeMatmult(),
    };
    return programs;
}

const std::vector<BenchmarkProgram> &
extraBenchmarks()
{
    static const std::vector<BenchmarkProgram> programs = {
        makeCrc32(),
        makePopcount(),
    };
    return programs;
}

const BenchmarkProgram *
findBenchmark(const std::string &name)
{
    for (const BenchmarkProgram &program : beebsBenchmarks()) {
        if (program.name == name)
            return &program;
    }
    for (const BenchmarkProgram &program : extraBenchmarks()) {
        if (program.name == name)
            return &program;
    }
    return nullptr;
}

const BenchmarkProgram &
beebsBenchmark(const std::string &name)
{
    const BenchmarkProgram *program = findBenchmark(name);
    if (!program)
        davf_throw(ErrorKind::NotFound, "unknown benchmark '", name, "'");
    return *program;
}

} // namespace davf
