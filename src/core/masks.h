// Pattern conformance as per-step allowed-token lists.
//
// Two consumers:
//  * PassGPT's guided generation (paper §I-A1): the model is trained on
//    bare passwords and the table *forces* each sampled token into the
//    pattern's character class — exactly the filtering scheme the paper
//    criticises for word truncation.
//  * D&C-GEN leaf tasks and PagPassGPT's strict mode: the model already
//    conditions on the pattern; the table merely guarantees conformance of
//    the remaining suffix.
// D&C-GEN division reads the same per-class lists to find the candidate
// tokens of a task's next position (c = 52 letters, 10 digits or 32
// specials, paper §III-C).
#pragma once

#include <span>
#include <vector>

#include "gpt/sampler.h"
#include "pcfg/pattern.h"
#include "tokenizer/tokenizer.h"

namespace ppg::core {

/// The vocabulary's character tokens per class, ascending, and the list
/// holding <EOS> alone: the shared lists every pattern table points into.
struct ClassTokenSets {
  std::vector<int> letter, digit, special;
  std::vector<int> eos{tok::Tokenizer::kEos};

  ClassTokenSets() {
    for (int id = tok::Tokenizer::kCharBase; id < tok::Tokenizer::kCharBase + 94;
         ++id) {
      switch (pcfg::classify(tok::Tokenizer::token_char(id))) {
        case pcfg::CharClass::kLetter: letter.push_back(id); break;
        case pcfg::CharClass::kDigit: digit.push_back(id); break;
        case pcfg::CharClass::kSpecial: special.push_back(id); break;
      }
    }
  }

  std::span<const int> of(pcfg::CharClass c) const {
    switch (c) {
      case pcfg::CharClass::kLetter: return letter;
      case pcfg::CharClass::kDigit: return digit;
      default: return special;
    }
  }

  /// Process-wide instance.
  static const ClassTokenSets& instance() {
    static const ClassTokenSets sets;
    return sets;
  }
};

/// The allowed-token table of a pattern: generation step s may take only
/// characters of pattern position `offset + s`, and only <EOS> once the
/// pattern is exhausted. `offset` is how many password characters the
/// prefix already contains (nonzero for D&C-GEN subtasks).
inline gpt::AllowedTokens make_pattern_mask(
    const std::vector<pcfg::Segment>& pattern, int offset = 0) {
  const ClassTokenSets& sets = ClassTokenSets::instance();
  gpt::AllowedTokens allowed;
  int pos = 0;
  for (const pcfg::Segment& seg : pattern)
    for (int i = 0; i < seg.len; ++i, ++pos)
      if (pos >= offset) allowed.steps.push_back(sets.of(seg.cls));
  allowed.steps.push_back(sets.eos);  // pattern complete: only <EOS>
  return allowed;
}

}  // namespace ppg::core
