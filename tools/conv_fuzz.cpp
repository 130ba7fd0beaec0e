// Command-line driver for the conv-config fuzzer (analysis/conv_fuzz).
//
//   conv_fuzz [--seed N] [--count N] [--start N] [--verbose] [--no-poison]
//             [--no-fused] [--int8] [--prepack] [--depthwise] [--winograd]
//             [--tune-cache [PATH]]
//
// Deterministic per (seed, index): a failing run prints, for every
// failure, the exact one-config command that reproduces it. Exit status:
// 0 all checks passed, 1 failures found, 2 bad usage.
//
// CI runs `conv_fuzz --seed 1 --count 200` on every PR (see
// .github/workflows/ci.yml and docs/TESTING.md).
#include <charconv>
#include <cstring>
#include <iostream>
#include <string_view>

#include "analysis/conv_fuzz.hpp"

namespace {

int usage(std::ostream& os) {
  os << "usage: conv_fuzz [--seed N] [--count N] [--start N]"
        " [--verbose] [--no-poison] [--no-fused] [--int8] [--prepack]"
        " [--depthwise] [--winograd] [--tune-cache [PATH]]\n"
        "  --seed N      RNG seed defining the config sequence"
        " (default 1)\n"
        "  --count N     number of configs to check (default 200)\n"
        "  --start N     first config index, for reproducing one"
        " failure (default 0)\n"
        "  --verbose     print every config as it is checked\n"
        "  --no-poison   do not poison workspace scratch during the"
        " run\n"
        "  --no-fused    skip the fused-vs-unfused engine and layer"
        " cross-checks\n"
        "  --int8        cross-check int8 quantized forwards against"
        " fp32\n"
        "  --prepack     cross-check prepacked forwards against the"
        " staged paths (bit-identity)\n"
        "  --depthwise   draw only depthwise-degenerate configs"
        " (groups == C, multipliers > 1)\n"
        "  --winograd    draw only Winograd-eligible configs"
        " (k = 3, s = 1, pads 0-2, tile-edge adversarial)\n"
        "  --tune-cache [PATH]\n"
        "                round-trip autotuner decisions through the disk"
        " cache\n"
        "                (default file: fuzz_tune_cache.json)\n";
  return 2;
}

/// Full-string unsigned parse; rejects "12abc", "-3" and overflow.
bool parse_u64(std::string_view text, std::uint64_t& out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  gpucnn::analysis::FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t value = 0;
    if (arg == "--verbose") {
      options.log = &std::cout;
    } else if (arg == "--no-poison") {
      options.poison = false;
    } else if (arg == "--no-fused") {
      options.fused = false;
    } else if (arg == "--int8") {
      options.int8 = true;
    } else if (arg == "--prepack") {
      options.prepack = true;
    } else if (arg == "--depthwise") {
      options.depthwise = true;
    } else if (arg == "--winograd") {
      options.winograd = true;
    } else if (arg == "--tune-cache") {
      options.tune_cache = true;
      // Optional PATH operand: anything that does not look like a flag.
      if (has_value && argv[i + 1][0] != '-') {
        options.tune_cache_path = argv[i + 1];
        ++i;
      }
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], value)) {
      options.seed = value;
      ++i;
    } else if (arg == "--count" && has_value &&
               parse_u64(argv[i + 1], value)) {
      options.count = value;
      ++i;
    } else if (arg == "--start" && has_value &&
               parse_u64(argv[i + 1], value)) {
      options.start = value;
      ++i;
    } else {
      std::cerr << "conv_fuzz: bad argument '" << arg << "'\n";
      return usage(std::cerr);
    }
  }

  const auto report = gpucnn::analysis::run_fuzz(options);

  std::cout << "conv_fuzz: seed " << options.seed << ", configs ["
            << options.start << ", " << options.start + options.count
            << "): " << report.configs_run << " run, "
            << report.engine_checks << " engine-pass comparisons ("
            << report.engine_skips << " unsupported skipped), "
            << report.plan_checks << " framework plans validated ("
            << report.plan_skips << " shape-limited skipped), "
            << report.fused_checks << " fused-vs-unfused comparisons, "
            << report.int8_checks << " int8-vs-fp32 comparisons, "
            << report.prepack_checks << " prepacked-vs-staged comparisons, "
            << report.tune_checks << " tune-cache round-trips\n";

  for (const auto& failure : report.failures) {
    std::cout << "FAIL [" << failure.index << "] "
              << failure.config.to_string() << " pad=" << failure.config.pad
              << " groups=" << failure.config.groups << "\n  "
              << failure.what << "\n  repro: "
              << gpucnn::analysis::repro_command(options.seed, failure.index,
                                                 options.depthwise,
                                                 options.winograd)
              << '\n';
  }
  if (!report.ok()) {
    std::cout << report.failures.size() << " failure(s)\n";
    return 1;
  }
  std::cout << "all checks passed\n";
  return 0;
}
