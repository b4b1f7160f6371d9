// ffcheck rule definitions and the per-file rule runner.
//
// Three rule families guard the two properties the repo's dynamic suites
// can only check after the fact:
//
//   ND — nondeterminism sources. FlashFlow's results must be bit-identical
//        for a fixed seed regardless of thread count or shard size
//        (tests/test_golden_determinism.cpp); anything that reads
//        ambient entropy or iterates a hash container can silently break
//        that. Enforced in src/ only: tests and harnesses may read clocks.
//   HP — hot-path allocation guards. Regions bracketed by the comments
//        `// FF_HOT_BEGIN` ... `// FF_HOT_END` (the per-second slot loop,
//        the slot aggregation, FairShareSolver::solve_prepared,
//        PathModel::fill_paths)
//        must stay free of allocation-shaped calls; PR 4 bought that
//        property and nothing should quietly spend it.
//   FL — floating-point accumulation over unordered containers, where the
//        summation order (and therefore the rounded result) is whatever
//        the hash table happens to produce.
//
// Every rule can be suppressed with `// FFCHECK(RULE): reason` on the
// offending line or the line directly above; the driver (ffcheck.h)
// rejects suppressions without a reason and flags ones that stopped
// matching, so the suppression baseline can only shrink.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace flashflow::lint {

struct Diagnostic {
  int line = 0;
  std::string rule;     // e.g. "ND01"
  std::string message;  // human-readable, no trailing newline
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// Every rule ffcheck knows, in id order: ND01..ND06, HP01..HP04, FL01,
/// plus the FF0x meta-rules the driver emits (unused/malformed
/// suppressions, unbalanced hot-region annotations).
const std::vector<RuleInfo>& all_rules();

/// True if `id` names a known rule (suppressible or meta).
bool known_rule(std::string_view id);

/// Which rule families apply to a file, derived from its path by the
/// driver: ND rules bind src/ only, the getenv ban binds everything
/// outside tests/, HP and FL run wherever their triggers appear.
struct FileContext {
  bool nd_rules = false;
  bool getenv_rule = true;
};

/// Runs every applicable rule over a lexed file. Diagnostics come back in
/// line order; suppression filtering is the driver's job.
std::vector<Diagnostic> run_rules(const LexResult& lexed,
                                  const FileContext& ctx);

}  // namespace flashflow::lint
