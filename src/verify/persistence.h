/**
 * @file
 * Persistence for integrity-protected memory.
 *
 * The paper's related work (Maheshwari, Vingralek and Shapiro) builds
 * trusted databases on untrusted *disk* with exactly this structure:
 * bulk data plus the hash tree live on untrusted storage; only the
 * root authenticators need a trusted home (in a real deployment,
 * sealed by the processor secret; here, a separate small file the
 * caller is responsible for protecting).
 *
 * `saveState` flushes a MerkleMemory and writes two artefacts:
 *   <ram_path>   : the untrusted image (sparse pages + touched set)
 *   <root_path>  : the trusted root registers + geometry fingerprint
 *
 * Both saves are crash-safe: the new state is written to
 * `<path>.tmp`, flushed and close-checked (so a buffered ENOSPC
 * surfaces as a fatal error, never a silently short file), and only
 * then rename()d over the final path. A process killed at any point
 * of a save leaves the previous snapshot byte-identical on disk - at
 * worst with a stale `.tmp` beside it, which the next successful
 * save overwrites.
 *
 * The root file (format CMTRTS02) stores one record per shard - the
 * shard index followed by its root registers - and ends with an MD5
 * digest over the whole payload. A crash between two per-shard root
 * writes therefore leaves a file that fails at load time (truncated,
 * or digest mismatch for a torn in-place update): a torn multi-root
 * state never verifies, it is rejected before any data is trusted.
 *
 * `loadState` restores both into a fresh BackingStore/MerkleMemory
 * pair; any offline tampering with the RAM image surfaces as an
 * IntegrityException on the next verified load, while tampering with
 * the root file is rejected at load time by the geometry fingerprint
 * and payload digest (and, in a real system, by the seal).
 */

#ifndef CMT_VERIFY_PERSISTENCE_H
#define CMT_VERIFY_PERSISTENCE_H

#include <string>

#include "mem/backing_store.h"
#include "verify/merkle_memory.h"

namespace cmt
{

/** Write the untrusted image of @p ram plus @p memory's touched set,
 *  pages and chunks in ascending index order (one content, one file). */
void saveUntrustedImage(MerkleMemory &memory, const BackingStore &ram,
                        const std::string &ram_path);

/** Write @p memory's trusted roots (flushes first). */
void saveTrustedRoots(MerkleMemory &memory,
                      const std::string &root_path);

/**
 * Restore a previously saved untrusted image into @p ram and its
 * touched set + roots into @p memory. The MerkleConfig used to build
 * @p memory must match the geometry recorded in the root file
 * (fatal otherwise). @p memory's cache is cleared so subsequent loads
 * verify against the restored image.
 */
void loadState(MerkleMemory &memory, BackingStore &ram,
               const std::string &ram_path,
               const std::string &root_path);

/**
 * Test seam: make the next saves die (via cmt_fatal, so a
 * ScopedThrowOnError guard turns the death into a SimError) at a
 * named stage, simulating a process killed mid-save. Stages:
 * "image-mid-write", "image-pre-rename", "roots-mid-write",
 * "roots-pre-rename". Pass nullptr (or "") to disarm. The
 * crash-consistency suite uses this to prove the previous snapshot
 * survives a death at every stage.
 */
void setSaveCrashStage(const char *stage);

} // namespace cmt

#endif // CMT_VERIFY_PERSISTENCE_H
