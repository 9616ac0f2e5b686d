/**
 * @file
 * Offline maintenance for a result-store directory (docs/SERVICE.md,
 * docs/ROBUSTNESS.md).
 *
 * Usage:
 *   davf_store fsck [--repair] DIR
 *   davf_store compact DIR
 *   davf_store migrate DIR
 *   davf_store populate [--payload-bytes N] DIR COUNT
 *   davf_store crashpoints
 *
 * `fsck` checks DIR (store/index_fsck.hh: garbled frames, torn tails,
 * superseded frames, legacy strays, retired index files). Exit 0
 * when the store is damage-free, 1 when damage was found (or, with
 * --repair, when some damage could not be repaired) or the directory
 * is unreadable, 2 on usage errors. With --repair, damage evidence is
 * quarantined into DIR/quarantine/ (never deleted); a repaired store
 * exits 0.
 *
 * `compact` is repair plus space recovery: absorb legacy records,
 * quarantine damage, rewrite the segment file to live records only.
 * Crash-safe — killing it at any instant leaves a store a rerun
 * finishes.
 *
 * `migrate` absorbs every legacy per-file record (`r-*.rec`, written
 * by older releases) into the segment file (creating it if absent),
 * unlinking each legacy file only after its replacement is durable;
 * damaged legacy records are quarantined. Idempotent and crash-safe —
 * rerun after any interruption. The owning ResultStore runs the same
 * pass at open.
 *
 * `populate` writes COUNT synthetic records (deterministic keys and
 * payloads) through a ResultStore — fixture setup for the CI store
 * smoke. COUNT and N must be whole unsigned numbers (exit 2
 * otherwise).
 *
 * `crashpoints` prints every crash-point name compiled into this
 * binary (util/crashpoint.hh), one per line; the CI crash soak
 * iterates this list.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "service/result_store.hh"
#include "store/index_fsck.hh"
#include "store/migrate.hh"
#include "util/crashpoint.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace davf;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s fsck [--repair] DIR\n"
                 "       %s compact DIR\n"
                 "       %s migrate DIR\n"
                 "       %s populate [--payload-bytes N] DIR COUNT\n"
                 "       %s crashpoints\n",
                 argv0, argv0, argv0, argv0, argv0);
    return 2;
}

void
printReport(const store::IndexFsckReport &report)
{
    for (const std::string &note : report.notes)
        std::fprintf(stderr, "%s\n", note.c_str());
    std::fprintf(stderr,
                 "store: %llu valid frame(s), %llu superseded, "
                 "%llu garbled, %llu torn-tail byte(s), "
                 "%llu legacy stray(s), %llu foreign\n",
                 (unsigned long long)report.validFrames,
                 (unsigned long long)report.superseded,
                 (unsigned long long)report.garbledFrames,
                 (unsigned long long)report.tornTailBytes,
                 (unsigned long long)report.legacyStrays,
                 (unsigned long long)report.foreign);
    if (report.quarantined || report.migrated || report.reclaimedBytes) {
        std::fprintf(stderr,
                     "repaired: %llu quarantined, %llu migrated, "
                     "%llu byte(s) reclaimed\n",
                     (unsigned long long)report.quarantined,
                     (unsigned long long)report.migrated,
                     (unsigned long long)report.reclaimedBytes);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    return guardedMain([&]() -> int {
        if (argc < 2)
            return usage(argv[0]);
        const std::string verb = argv[1];

        if (verb == "crashpoints") {
            for (const std::string &name : crashpoint::knownPoints())
                std::printf("%s\n", name.c_str());
            return 0;
        }

        if (verb == "fsck") {
            store::IndexFsckOptions options;
            std::string dir;
            for (int i = 2; i < argc; ++i) {
                if (std::strcmp(argv[i], "--repair") == 0)
                    options.repair = true;
                else if (dir.empty())
                    dir = argv[i];
                else
                    return usage(argv[0]);
            }
            if (dir.empty())
                return usage(argv[0]);
            const store::IndexFsckReport report =
                store::fsckIndexStore(dir, options);
            printReport(report);
            return report.clean() ? 0 : 1;
        }

        if (verb == "compact") {
            if (argc != 3)
                return usage(argv[0]);
            const store::IndexFsckReport report =
                store::compactIndexStoreDir(argv[2]);
            printReport(report);
            return report.clean() ? 0 : 1;
        }

        if (verb == "migrate") {
            if (argc != 3)
                return usage(argv[0]);
            const store::MigrateReport report =
                store::migrateStore(argv[2]);
            std::fprintf(stderr,
                         "migrated %llu record(s), %llu already "
                         "indexed, %llu quarantined, %llu foreign "
                         "entr(ies) untouched\n",
                         (unsigned long long)report.migrated,
                         (unsigned long long)report.alreadyIndexed,
                         (unsigned long long)report.quarantined,
                         (unsigned long long)report.foreign);
            return report.quarantined == 0 ? 0 : 1;
        }

        if (verb == "populate") {
            std::string dir;
            std::string countText;
            std::string payloadText = "64";
            for (int i = 2; i < argc; ++i) {
                const std::string arg = argv[i];
                if (arg == "--payload-bytes" && i + 1 < argc)
                    payloadText = argv[++i];
                else if (dir.empty())
                    dir = arg;
                else if (countText.empty())
                    countText = arg;
                else
                    return usage(argv[0]);
            }
            if (dir.empty() || countText.empty())
                return usage(argv[0]);
            uint64_t count = 0;
            uint64_t payloadBytes = 0;
            try {
                count = parseU64Strict(countText, "COUNT");
                payloadBytes = parseU64Strict(payloadText, "--payload-bytes");
            } catch (const DavfError &error) {
                std::fprintf(stderr, "%s\n", error.what());
                return usage(argv[0]);
            }
            service::ResultStore store({.dir = dir, .memCapacity = 0});
            for (uint64_t i = 0; i < count; ++i) {
                const std::string key = "populate-key-" + std::to_string(i);
                std::string payload = "payload-" + std::to_string(i) + "-";
                while (payload.size() < payloadBytes)
                    payload += 'x';
                store.store(key, payload);
            }
            std::fprintf(stderr, "populated %llu record(s) in %s\n",
                         (unsigned long long)count, dir.c_str());
            return 0;
        }

        return usage(argv[0]);
    });
}
