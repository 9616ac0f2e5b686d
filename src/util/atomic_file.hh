/**
 * @file
 * Crash-safe file replacement: write to a temporary sibling, fsync,
 * rename over the target, fsync the parent directory. A reader
 * therefore only ever sees either the complete old contents or the
 * complete new contents — never a truncated quarantine record or a
 * half CSV row — and a record that was published stays published
 * across a power cut (the directory fsync pins the rename).
 *
 * Every step is guarded by a named crash point
 * (util/crashpoint.hh: atomic_file.pre_tmp_write, .write, .pre_fsync,
 * .pre_rename, .post_rename), which is how the recovery test matrix
 * proves a kill at any instant of this sequence is survivable.
 */

#ifndef DAVF_UTIL_ATOMIC_FILE_HH
#define DAVF_UTIL_ATOMIC_FILE_HH

#include <string>
#include <string_view>

namespace davf {

/**
 * Atomically replace @p path with @p contents (tmp file + rename +
 * parent-directory fsync). Throws DavfError{Io} on any filesystem
 * failure; the target is left untouched in that case.
 */
void writeFileAtomic(const std::string &path, std::string_view contents);

} // namespace davf

#endif // DAVF_UTIL_ATOMIC_FILE_HH
