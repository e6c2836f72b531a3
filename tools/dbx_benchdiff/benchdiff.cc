#include "tools/dbx_benchdiff/benchdiff.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>

#include "src/util/string_util.h"

namespace dbx::benchdiff {
namespace {

/// Recursive-descent JSON reader that flattens as it goes. Arrays index
/// their elements ("configs.0"), objects join keys with '.'.
class FlatParser {
 public:
  explicit FlatParser(const std::string& text) : s_(text) {}

  Status Parse(FlatJson* out) {
    out_ = out;
    SkipWs();
    DBX_RETURN_IF_ERROR(ParseValue(""));
    SkipWs();
    if (i_ != s_.size()) {
      return Err("trailing bytes after the top-level value");
    }
    return Status::OK();
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument(
        StringPrintf("JSON parse error at byte %zu: %s", i_, what.c_str()));
  }

  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Consume(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  static std::string Join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return Err("dangling escape");
        char e = s_[i_++];
        switch (e) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u':
            // Benches emit ASCII; keep the escape verbatim rather than
            // decoding UTF-16 surrogates.
            if (i_ + 4 > s_.size()) return Err("truncated \\u escape");
            *out += "\\u" + s_.substr(i_, 4);
            i_ += 4;
            break;
          default:
            return Err(std::string("unknown escape '\\") + e + "'");
        }
      } else {
        *out += c;
      }
    }
    if (!Consume('"')) return Err("unterminated string");
    return Status::OK();
  }

  Status ParseValue(const std::string& path) {
    SkipWs();
    if (i_ >= s_.size()) return Err("unexpected end of input");
    const char c = s_[i_];
    if (c == '{') return ParseObject(path);
    if (c == '[') return ParseArray(path);
    if (c == '"') {
      std::string str;
      DBX_RETURN_IF_ERROR(ParseString(&str));
      out_->strings[path] = std::move(str);
      return Status::OK();
    }
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      out_->numbers[path] = 1.0;
      return Status::OK();
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      out_->numbers[path] = 0.0;
      return Status::OK();
    }
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return Status::OK();
    }
    // Number.
    const size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) || s_[i_] == '-' ||
            s_[i_] == '+' || s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) return Err("expected a value");
    char* end = nullptr;
    const std::string token = s_.substr(start, i_ - start);
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("bad number '" + token + "'");
    out_->numbers[path] = v;
    return Status::OK();
  }

  Status ParseObject(const std::string& path) {
    if (!Consume('{')) return Err("expected '{'");
    SkipWs();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWs();
      std::string key;
      DBX_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      DBX_RETURN_IF_ERROR(ParseValue(Join(path, key)));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}'");
    }
  }

  Status ParseArray(const std::string& path) {
    if (!Consume('[')) return Err("expected '['");
    SkipWs();
    if (Consume(']')) return Status::OK();
    for (size_t index = 0;; ++index) {
      DBX_RETURN_IF_ERROR(ParseValue(Join(path, std::to_string(index))));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Err("expected ',' or ']'");
    }
  }

  const std::string& s_;
  size_t i_ = 0;
  FlatJson* out_ = nullptr;
};

std::string LastSegment(const std::string& path) {
  const size_t dot = path.rfind('.');
  return dot == std::string::npos ? path : path.substr(dot + 1);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Leaves that say how a run was configured rather than what it measured.
bool IsConfigLeaf(const std::string& path) {
  const std::string last = LastSegment(path);
  return last == "smoke" || last == "rows" || last == "mode" ||
         last == "hardware_threads" || last == "threads";
}

// A leaf's value as text, exact for numbers; "absent" when `doc` lacks it.
std::string LeafText(const FlatJson& doc, const std::string& path) {
  if (auto it = doc.numbers.find(path); it != doc.numbers.end()) {
    return StringPrintf("%.17g", it->second);
  }
  if (auto it = doc.strings.find(path); it != doc.strings.end()) {
    return "\"" + it->second + "\"";
  }
  return "absent";
}

// "<leaf>: baseline <v>, current <v>" for the first config leaf (in path
// order) whose value differs between the documents; "" when none does.
std::string FirstConfigMismatch(const FlatJson& baseline,
                                const FlatJson& current) {
  std::set<std::string> paths;
  for (const FlatJson* doc : {&baseline, &current}) {
    for (const auto& [path, value] : doc->numbers) {
      if (IsConfigLeaf(path)) paths.insert(path);
    }
    for (const auto& [path, value] : doc->strings) {
      if (IsConfigLeaf(path)) paths.insert(path);
    }
  }
  for (const std::string& path : paths) {
    const std::string base = LeafText(baseline, path);
    const std::string cur = LeafText(current, path);
    if (base != cur) return path + ": baseline " + base + ", current " + cur;
  }
  return "";
}

const char* VerdictLabel(const MetricDiff& d) {
  if (d.regression) return "**REGRESSION**";
  switch (d.direction) {
    case Direction::kInfo:
      return "info";
    case Direction::kLowerBetter:
      return d.rel_change < 0 ? "improved" : "ok";
    case Direction::kHigherBetter:
      return d.rel_change > 0 ? "improved" : "ok";
  }
  return "ok";
}

}  // namespace

Result<FlatJson> ParseFlatJson(const std::string& text) {
  FlatJson out;
  FlatParser parser(text);
  DBX_RETURN_IF_ERROR(parser.Parse(&out));
  return out;
}

Direction ClassifyMetric(const std::string& path) {
  const std::string last = LastSegment(path);
  if (EndsWith(last, "_ms") || last == "errors") return Direction::kLowerBetter;
  if (last == "qps" || EndsWith(last, "per_sec") ||
      last.rfind("speedup", 0) == 0) {
    return Direction::kHigherBetter;
  }
  return Direction::kInfo;
}

bool DiffReport::has_regression() const {
  for (const MetricDiff& d : rows) {
    if (d.regression) return true;
  }
  return false;
}

std::string DiffReport::Markdown() const {
  std::string out;
  out += "### benchdiff: " + baseline_name + " vs " + current_name + "\n\n";
  out += StringPrintf("threshold: %.0f%%, min_abs_ms: %s\n\n",
                      options.threshold * 100.0,
                      FormatDouble(options.min_abs_ms, 3).c_str());
  out += "| metric | baseline | current | change | verdict |\n";
  out += "|---|---:|---:|---:|---|\n";
  for (const MetricDiff& d : rows) {
    std::string change = d.baseline > 0.0
                             ? StringPrintf("%+.1f%%", d.rel_change * 100.0)
                             : std::string("n/a");
    std::string verdict = VerdictLabel(d);
    if (!d.note.empty()) verdict += " (" + d.note + ")";
    out += "| " + d.key + " | " + FormatDouble(d.baseline, 3) + " | " +
           FormatDouble(d.current, 3) + " | " + change + " | " + verdict +
           " |\n";
  }
  out += has_regression() ? "\nverdict: **REGRESSION**\n" : "\nverdict: ok\n";
  return out;
}

DiffReport DiffBenchJson(const FlatJson& baseline, const FlatJson& current,
                         const DiffOptions& options) {
  DiffReport report;
  report.options = options;
  report.config_mismatch = FirstConfigMismatch(baseline, current);
  if (!report.config_mismatch.empty()) return report;
  for (const auto& [key, base_value] : baseline.numbers) {
    auto it = current.numbers.find(key);
    if (it == current.numbers.end()) continue;
    MetricDiff d;
    d.key = key;
    d.baseline = base_value;
    d.current = it->second;
    d.direction = ClassifyMetric(key);
    if (base_value > 0.0) {
      d.rel_change = (d.current - d.baseline) / d.baseline;
      const double abs_delta = std::abs(d.current - d.baseline);
      const bool abs_ok =
          !EndsWith(LastSegment(key), "_ms") || abs_delta >= options.min_abs_ms;
      if (d.direction == Direction::kLowerBetter) {
        d.regression =
            d.current > d.baseline * (1.0 + options.threshold) && abs_ok;
      } else if (d.direction == Direction::kHigherBetter) {
        d.regression = d.current < d.baseline * (1.0 - options.threshold);
      }
    } else if (d.direction != Direction::kInfo) {
      d.note = "baseline <= 0, skipped";
    }
    report.rows.push_back(std::move(d));
  }
  return report;
}

size_t SeedRegression(FlatJson* doc, const std::string& key_suffix,
                      double factor) {
  size_t changed = 0;
  for (auto& [key, value] : doc->numbers) {
    if (key == key_suffix || LastSegment(key) == key_suffix) {
      value *= factor;
      ++changed;
    }
  }
  return changed;
}

Status RunSelfTest() {
  const std::string sample =
      "{\n"
      "  \"bench\": \"scale_threads\", \"smoke\": true, \"rows\": 40000,\n"
      "  \"mode\": \"exact\", \"hardware_threads\": 4,\n"
      "  \"configs\": [\n"
      "    {\"threads\": 1, \"best_ms\": 38.0, \"rows_per_sec\": 1052631.6,\n"
      "     \"p50_ms\": 37.5, \"p95_ms\": 48.75},\n"
      "    {\"threads\": 4, \"best_ms\": 12.0, \"rows_per_sec\": 3333333.3,\n"
      "     \"p50_ms\": 12.5, \"p95_ms\": 16.25}\n"
      "  ],\n"
      "  \"speedup_max_threads_vs_1\": 3.167\n"
      "}\n";
  auto baseline = ParseFlatJson(sample);
  if (!baseline.ok()) {
    return Status::Internal("self-test: sample failed to parse: " +
                            baseline.status().message());
  }
  const DiffOptions options;  // defaults: 20%, no absolute floor

  const DiffReport identical = DiffBenchJson(*baseline, *baseline, options);
  if (identical.has_regression()) {
    return Status::Internal("self-test: identical documents flagged as a "
                            "regression");
  }
  if (identical.rows.empty()) {
    return Status::Internal("self-test: identical compare produced no rows");
  }

  FlatJson seeded = *baseline;
  const double factor = 1.0 + 2.0 * options.threshold;  // 1.4: well past 20%
  if (SeedRegression(&seeded, "p95_ms", factor) == 0) {
    return Status::Internal("self-test: seeding touched no metric");
  }
  const DiffReport regressed = DiffBenchJson(*baseline, seeded, options);
  size_t p95_flagged = 0;
  for (const MetricDiff& d : regressed.rows) {
    if (LastSegment(d.key) == "p95_ms" && d.regression) ++p95_flagged;
  }
  if (p95_flagged != 2) {
    return Status::Internal("self-test: seeded p95 regression not flagged");
  }

  FlatJson fewer_threads = *baseline;
  fewer_threads.numbers["configs.1.threads"] = 2.0;
  const DiffReport mismatched =
      DiffBenchJson(*baseline, fewer_threads, options);
  if (mismatched.config_mismatch.empty() || !mismatched.rows.empty()) {
    return Status::Internal("self-test: a thread-count mismatch was compared");
  }
  return Status::OK();
}

}  // namespace dbx::benchdiff
