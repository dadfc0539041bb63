/**
 * @file
 * The skip-verify fault hook. CMT_FAULT_SKIP_VERIFY_SHARD=<shard>
 * deliberately disables chunk verification on one shard of the
 * functional MerkleMemory, so the differential fuzzer (tools/cmt_fuzz,
 * DESIGN.md section 9) can prove it detects a policy that silently
 * stops checking. Never set it outside fuzz or test harnesses. The
 * variable is resolved once and is free when unset.
 */

#ifndef CMT_TREE_TREE_DEBUG_H
#define CMT_TREE_TREE_DEBUG_H

#include <cstdint>

namespace cmt
{

/**
 * Shard whose MerkleMemory chunk verifications are deliberately
 * skipped (fault injection for the differential fuzzer), or -1 when
 * the fault is unarmed. First call resolves
 * CMT_FAULT_SKIP_VERIFY_SHARD; setFaultSkipVerifyShard() overrides it
 * programmatically (gtest cases cannot rely on pre-exec environment).
 */
std::int64_t faultSkipVerifyShard();

/** Arm (@p shard >= 0) or clear (@p shard == -1) the skip-verify
 *  fault. Test/fuzz harness use only. */
void setFaultSkipVerifyShard(std::int64_t shard);

} // namespace cmt

#endif // CMT_TREE_TREE_DEBUG_H
