#include "apps/wordcount.hpp"

#include <algorithm>

namespace bigk::apps {

WordCountApp::Dataset::Dataset(const Params& params) {
  lines = params.data_bytes / kLineBytes;
  text.resize(lines * kLineBytes);
  Rng rng(params.seed);
  // A small Zipf-ish vocabulary: short common words, longer rare ones.
  for (std::uint64_t line = 0; line < lines; ++line) {
    std::uint8_t* out = &text[line * kLineBytes];
    std::uint32_t pos = 0;
    while (true) {
      // Word length 2..9, biased short.
      const std::uint32_t len =
          2 + static_cast<std::uint32_t>(rng.below(8) * rng.below(8) / 8);
      if (pos + len + 1 >= kLineBytes - 1) break;
      // A vocabulary of ~4096 stems keyed by a random id.
      std::uint64_t word_id = rng.below(4096);
      for (std::uint32_t i = 0; i < len; ++i) {
        out[pos++] = static_cast<std::uint8_t>('a' + (word_id + i * 7) % 26);
        word_id /= 3;
      }
      out[pos++] = ' ';
    }
    while (pos < kLineBytes - 1) out[pos++] = ' ';
    out[pos] = '\n';
  }
  counts = tables.add<std::uint32_t>(kBuckets);
}

void WordCountApp::reset() {
  auto counts = tables().host_span(input_.data().counts);
  std::fill(counts.begin(), counts.end(), 0u);
}

std::vector<schemes::StreamDecl> WordCountApp::stream_decls() {
  const std::vector<std::uint8_t>& text = input_.data().text;
  schemes::StreamDecl decl;
  decl.binding.host_data = reinterpret_cast<const std::byte*>(text.data());
  decl.binding.num_elements = text.size();
  decl.binding.elem_size = 1;
  decl.binding.mode = core::AccessMode::kReadOnly;
  decl.binding.elems_per_record = kLineBytes;
  decl.binding.reads_per_record = kLineBytes;
  decl.binding.writes_per_record = 0;
  return {decl};
}

std::uint64_t WordCountApp::result_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (std::uint32_t count :
       input_.tables().host_span(input_.data().counts)) {
    digest = fnv1a(digest, count);
  }
  return digest;
}

std::uint64_t WordCountApp::total_words() const {
  std::uint64_t total = 0;
  for (std::uint32_t count :
       input_.tables().host_span(input_.data().counts)) {
    total += count;
  }
  return total;
}

}  // namespace bigk::apps
