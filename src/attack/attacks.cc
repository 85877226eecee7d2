#include "attack/attacks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string_view>

#include "common/parallel.h"
#include "common/strings.h"
#include "watermark/ownership.h"

namespace privmark {

namespace {

// NaN passes every `<`/`>` range check, and casting NaN * rows to size_t
// is undefined, so finiteness is checked first.
Status CheckFraction(const char* attack, double fraction, bool at_most_one) {
  if (!std::isfinite(fraction) || fraction < 0.0 ||
      (at_most_one && fraction > 1.0)) {
    return Status::InvalidArgument(
        std::string(attack) + " fraction must be " +
        (at_most_one ? "in [0,1]" : "finite and >= 0") + ", got " +
        std::to_string(fraction));
  }
  return Status::OK();
}

}  // namespace

Result<AttackReport> SubsetAlterationAttack(
    Table* table, const std::vector<size_t>& qi_columns, double fraction,
    Random* rng, size_t num_threads) {
  PRIVMARK_RETURN_NOT_OK(CheckFraction("alteration", fraction, true));
  AttackReport report;
  if (table->num_rows() == 0 || fraction == 0.0) return report;

  // Distinct labels currently visible per column, in first-occurrence row
  // order. Row shards each collect their local first occurrences; the
  // shard-order merge keeps a label only if no earlier shard produced it,
  // which reproduces the serial first-occurrence order exactly (a label
  // surfacing first in shard s cannot have occurred in any earlier shard,
  // and earlier rows live in earlier shards).
  const std::unique_ptr<ThreadPool> pool = MakeThreadPool(num_threads);
  std::vector<std::vector<Value>> label_pool(qi_columns.size());
  for (size_t c = 0; c < qi_columns.size(); ++c) {
    std::set<std::string, std::less<>> merged_seen;  // transparent lookups
    PRIVMARK_ASSIGN_OR_RETURN(
        label_pool[c],
        ParallelReduce<std::vector<Value>>(
            pool.get(), table->num_rows(), {},
            [&](size_t, size_t begin,
                size_t end) -> Result<std::vector<Value>> {
              std::set<std::string, std::less<>> seen;
              std::vector<Value> local;
              std::string scratch;
              for (size_t r = begin; r < end; ++r) {
                const Value& cell = table->at(r, qi_columns[c]);
                std::string_view label;
                if (cell.type() == ValueType::kString) {
                  label = cell.AsString();
                } else {
                  scratch = cell.ToString();
                  label = scratch;
                }
                const auto it = seen.lower_bound(label);
                if (it == seen.end() || *it != label) {
                  seen.emplace_hint(it, label);
                  local.push_back(Value::String(std::string(label)));
                }
              }
              return local;
            },
            [&merged_seen](std::vector<Value>* acc, std::vector<Value>&& local) {
              for (Value& value : local) {
                const std::string_view label = value.AsString();
                const auto it = merged_seen.lower_bound(label);
                if (it == merged_seen.end() || *it != label) {
                  merged_seen.emplace_hint(it, label);
                  acc->push_back(std::move(value));
                }
              }
            }));
  }

  const size_t count =
      static_cast<size_t>(fraction * static_cast<double>(table->num_rows()));
  const std::vector<size_t> victims =
      rng->SampleWithoutReplacement(table->num_rows(), count);
  for (size_t r : victims) {
    ++report.rows_affected;
    for (size_t c = 0; c < qi_columns.size(); ++c) {
      const Value& replacement =
          label_pool[c][rng->Uniform(label_pool[c].size())];
      if (table->at(r, qi_columns[c]) != replacement) {
        table->Set(r, qi_columns[c], replacement);
        ++report.cells_changed;
      }
    }
  }
  return report;
}

Result<AttackReport> SubsetAdditionAttack(Table* table, double fraction,
                                          Random* rng) {
  PRIVMARK_RETURN_NOT_OK(CheckFraction("addition", fraction, false));
  AttackReport report;
  const size_t original_rows = table->num_rows();
  if (original_rows == 0 || fraction == 0.0) return report;
  PRIVMARK_ASSIGN_OR_RETURN(size_t ident_column,
                            table->schema().IdentifyingColumn());

  // Casting a double at or past the first one size_t cannot hold is
  // undefined (1e300 looped until memory ran out).
  const double wanted = fraction * static_cast<double>(original_rows);
  if (wanted >= static_cast<double>(std::numeric_limits<size_t>::max())) {
    return Status::InvalidArgument(
        "addition fraction " + std::to_string(fraction) + " of " +
        std::to_string(original_rows) + " rows is not a representable count");
  }
  const size_t to_add = static_cast<size_t>(wanted);
  for (size_t i = 0; i < to_add; ++i) {
    // Copy a random donor row, then replace its identifier with a fresh
    // random hex string the same length as the donor's (so bogus tuples are
    // indistinguishable in format from real encrypted identifiers).
    const size_t donor = rng->Uniform(original_rows);
    Row row = table->row(donor);
    const size_t ident_len =
        std::max<size_t>(2, row[ident_column].ToString().size());
    std::string fake;
    fake.reserve(ident_len);
    static constexpr char kHex[] = "0123456789abcdef";
    for (size_t j = 0; j < ident_len; ++j) {
      fake += kHex[rng->Uniform(16)];
    }
    row[ident_column] = Value::String(std::move(fake));
    PRIVMARK_RETURN_NOT_OK(table->AppendRow(std::move(row)));
    ++report.rows_affected;
  }
  return report;
}

Result<AttackReport> SubsetDeletionAttack(Table* table, double fraction,
                                          Random* rng, size_t num_threads) {
  PRIVMARK_RETURN_NOT_OK(CheckFraction("deletion", fraction, true));
  AttackReport report;
  const size_t num_rows = table->num_rows();
  if (num_rows == 0 || fraction == 0.0) return report;
  PRIVMARK_ASSIGN_OR_RETURN(size_t ident_column,
                            table->schema().IdentifyingColumn());

  // Order rows by identifier, then drop a contiguous range (the paper's
  // SQL `WHERE SSN > lval AND SSN < uval` deletions). Sort keys
  // materialize in row shards (the ToString per comparison used to
  // dominate); the sort itself is serial and sees the same key sequence
  // for any worker count.
  const std::unique_ptr<ThreadPool> pool = MakeThreadPool(num_threads);
  std::vector<std::string> keys(num_rows);
  PRIVMARK_RETURN_NOT_OK(ParallelFor(
      pool.get(), num_rows, [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          keys[r] = table->at(r, ident_column).ToString();
        }
        return Status::OK();
      }));
  std::vector<size_t> order(num_rows);
  for (size_t r = 0; r < num_rows; ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  const size_t count =
      static_cast<size_t>(fraction * static_cast<double>(num_rows));
  if (count == 0) return report;
  const size_t start = rng->Uniform(num_rows - count + 1);
  std::vector<size_t> doomed(order.begin() + static_cast<std::ptrdiff_t>(start),
                             order.begin() +
                                 static_cast<std::ptrdiff_t>(start + count));
  table->RemoveRows(doomed);
  report.rows_affected = count;
  return report;
}

Result<AttackReport> GeneralizationAttack(
    Table* table, const std::vector<size_t>& qi_columns,
    const std::vector<GeneralizationSet>& maximal, int levels,
    size_t num_threads) {
  if (qi_columns.size() != maximal.size()) {
    return Status::InvalidArgument(
        "GeneralizationAttack: column/maximal count mismatch");
  }
  if (levels < 1) {
    return Status::InvalidArgument("GeneralizationAttack: levels must be >= 1");
  }
  // Key-free and deterministic, so the whole rewrite shards over rows:
  // each row touches only its own cells, and the integer counters merge
  // in shard order.
  const std::unique_ptr<ThreadPool> pool = MakeThreadPool(num_threads);
  return ParallelReduce<AttackReport>(
      pool.get(), table->num_rows(), AttackReport{},
      [&](size_t, size_t begin, size_t end) -> Result<AttackReport> {
        AttackReport shard;
        for (size_t r = begin; r < end; ++r) {
          bool row_touched = false;
          for (size_t c = 0; c < qi_columns.size(); ++c) {
            const DomainHierarchy& tree = *maximal[c].tree();
            const Value& cell = table->at(r, qi_columns[c]);
            auto node = cell.type() == ValueType::kString
                            ? tree.FindByLabel(cell.AsString())
                            : tree.FindByLabel(cell.ToString());
            if (!node.ok()) continue;  // altered beyond the domain; leave it
            NodeId cur = *node;
            for (int step = 0; step < levels; ++step) {
              if (maximal[c].Contains(cur)) break;  // stay within metrics
              const NodeId parent = tree.Parent(cur);
              if (parent == kInvalidNode) break;
              cur = parent;
            }
            if (cur != *node) {
              table->Set(r, qi_columns[c], Value::String(tree.node(cur).label));
              ++shard.cells_changed;
              row_touched = true;
            }
          }
          if (row_touched) ++shard.rows_affected;
        }
        return shard;
      },
      [](AttackReport* acc, AttackReport&& shard) {
        acc->rows_affected += shard.rows_affected;
        acc->cells_changed += shard.cells_changed;
      });
}

Result<AttackReport> SiblingSwapAttack(Table* table,
                                       const std::vector<size_t>& qi_columns,
                                       const std::vector<GeneralizationSet>& ultimate,
                                       double fraction, Random* rng) {
  if (qi_columns.size() != ultimate.size()) {
    return Status::InvalidArgument(
        "SiblingSwapAttack: column/generalization count mismatch");
  }
  PRIVMARK_RETURN_NOT_OK(CheckFraction("swap", fraction, true));
  AttackReport report;
  if (table->num_rows() == 0 || fraction == 0.0) return report;
  const size_t count =
      static_cast<size_t>(fraction * static_cast<double>(table->num_rows()));
  const std::vector<size_t> victims =
      rng->SampleWithoutReplacement(table->num_rows(), count);
  for (size_t r : victims) {
    bool touched = false;
    for (size_t c = 0; c < qi_columns.size(); ++c) {
      const DomainHierarchy& tree = *ultimate[c].tree();
      const Value& cell = table->at(r, qi_columns[c]);
      auto node = cell.type() == ValueType::kString
                      ? tree.FindByLabel(cell.AsString())
                      : tree.FindByLabel(cell.ToString());
      if (!node.ok()) continue;
      // Siblings that are themselves ultimate nodes (so the table stays a
      // plausible binned table).
      std::vector<NodeId> candidates;
      for (NodeId sib : tree.Siblings(*node)) {
        if (sib != *node && ultimate[c].Contains(sib)) {
          candidates.push_back(sib);
        }
      }
      if (candidates.empty()) continue;
      const NodeId target = candidates[rng->Uniform(candidates.size())];
      table->Set(r, qi_columns[c], Value::String(tree.node(target).label));
      ++report.cells_changed;
      touched = true;
    }
    if (touched) ++report.rows_affected;
  }
  return report;
}

Result<ForgeryReport> AttemptStatisticForgery(const BitVector& recovered_mark,
                                              size_t mark_bits,
                                              HashAlgorithm algo,
                                              double match_threshold,
                                              size_t trials, Random* rng) {
  ForgeryReport report;
  report.trials = trials;
  for (size_t t = 0; t < trials; ++t) {
    // A bogus claim: any statistic the attacker could plausibly present.
    const double fake_v = rng->NextDouble() * 1e9;
    PRIVMARK_ASSIGN_OR_RETURN(BitVector fake_mark,
                              DeriveOwnershipMark(fake_v, mark_bits, algo));
    PRIVMARK_ASSIGN_OR_RETURN(double loss,
                              fake_mark.LossFraction(recovered_mark));
    const double match = 1.0 - loss;
    report.best_match = std::max(report.best_match, match);
    if (match >= match_threshold) ++report.successes;
  }
  return report;
}

}  // namespace privmark
