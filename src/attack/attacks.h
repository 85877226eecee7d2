// Attack suite (paper Sec. 5.2, Sec. 5.4 and Sec. 7.2).
//
// All attacks model a malicious data recipient who wants to destroy or
// dispute the embedded mark *without knowing the secret watermarking key*.
// Every attack is deterministic given its Random, so experiments reproduce
// bit-for-bit.

#ifndef PRIVMARK_ATTACK_ATTACKS_H_
#define PRIVMARK_ATTACK_ATTACKS_H_

#include <vector>

#include "common/bitvec.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/keyed_hash.h"
#include "hierarchy/generalization.h"
#include "relation/table.h"

namespace privmark {

class ThreadPool;

/// \brief Outcome counters common to the attacks.
struct AttackReport {
  size_t rows_affected = 0;
  size_t cells_changed = 0;
};

// Attacks accept a num_threads knob (1 = serial, 0 = hardware
// concurrency) for their deterministic scan phases — label-pool
// collection, sort-key materialization, whole-table rewrites. Phases that
// consume the Random stream stay serial: a pseudo-random sequence is
// inherently ordered, and the attacks' bit-for-bit reproducibility
// contract (same Random seed, same table) must hold for every thread
// count.
//
// A `fraction` that is NaN, infinite or outside the attack's range
// ([0,1], or >= 0 for addition) is InvalidArgument.

/// \brief Subset alteration (Fig. 12a): picks `fraction` of the rows at
/// random and overwrites every quasi-identifying cell with a random label
/// drawn from the labels currently present in that column (the attacker
/// sees only the published table, so plausible labels come from it).
Result<AttackReport> SubsetAlterationAttack(Table* table,
                                            const std::vector<size_t>& qi_columns,
                                            double fraction, Random* rng,
                                            size_t num_threads = 1);

/// \brief Subset addition (Fig. 12b): appends `fraction` * current-size new
/// tuples. Identifiers are fresh random hex strings (they look like
/// encrypted values); QI cells sample labels from the existing column
/// distribution; other columns copy a random donor row.
Result<AttackReport> SubsetAdditionAttack(Table* table, double fraction,
                                          Random* rng);

/// \brief Subset deletion (Fig. 12c): deletes a contiguous range of rows in
/// identifier order totalling `fraction` of the table — the paper deletes
/// `WHERE SSN > lval AND SSN < uval` ranges, i.e. contiguous identifier
/// intervals rather than uniform samples.
Result<AttackReport> SubsetDeletionAttack(Table* table, double fraction,
                                          Random* rng,
                                          size_t num_threads = 1);

/// \brief The generalization attack (Sec. 5.2): re-generalizes every
/// quasi-identifying cell `levels` steps up the domain hierarchy tree, but
/// never above the cell's maximal generalization node — precisely the
/// key-free attack that erases single-level watermarks while the data stays
/// within the usage metrics.
Result<AttackReport> GeneralizationAttack(
    Table* table, const std::vector<size_t>& qi_columns,
    const std::vector<GeneralizationSet>& maximal, int levels,
    size_t num_threads = 1);

/// \brief Sibling-swap attack: for `fraction` of the rows, replaces each
/// quasi-identifying cell's node by a random *sibling* (same parent).
///
/// This surgically randomizes the lowest level of the hierarchical
/// watermark while leaving all higher-level choices intact — the sharpest
/// test of the Sec. 5.3 claim that copies from higher levels are more
/// reliable and deserve more voting weight.
Result<AttackReport> SiblingSwapAttack(Table* table,
                                       const std::vector<size_t>& qi_columns,
                                       const std::vector<GeneralizationSet>& ultimate,
                                       double fraction, Random* rng);

/// \brief Rightful-ownership Attack 2 (Sec. 5.4): the attacker tries to
/// fabricate a "original" statistic v_a whose one-way mark F(v_a) matches
/// the mark actually recoverable from the table. With F one-way, random
/// search is the best available strategy; this helper runs `trials` random
/// claims and reports how many reach `match_threshold` — the bench shows
/// the success count is (essentially) zero.
struct ForgeryReport {
  size_t trials = 0;
  size_t successes = 0;
  double best_match = 0.0;
};
Result<ForgeryReport> AttemptStatisticForgery(const BitVector& recovered_mark,
                                              size_t mark_bits,
                                              HashAlgorithm algo,
                                              double match_threshold,
                                              size_t trials, Random* rng);

}  // namespace privmark

#endif  // PRIVMARK_ATTACK_ATTACKS_H_
