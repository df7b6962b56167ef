#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fftgrad/telemetry/ledger.h"

namespace fftgrad::telemetry {
namespace {

/// Recursive-descent parser for the JSON subset the ledger emits (full JSON
/// minus \uXXXX surrogate pairs, which never appear in our output).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_ws();
    if (at_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at offset " + std::to_string(at_) + ": " + why);
  }

  void skip_ws() {
    while (at_ < text_.size() && (text_[at_] == ' ' || text_[at_] == '\t' ||
                                  text_[at_] == '\n' || text_[at_] == '\r')) {
      ++at_;
    }
  }

  char peek() {
    if (at_ >= text_.size()) fail("unexpected end of input");
    return text_[at_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++at_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(at_, literal.size()) != literal) return false;
    at_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return {};
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++at_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++at_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++at_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (at_ >= text_.size()) fail("unterminated string");
      const char c = text_[at_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[at_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (at_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = at_;
    if (peek() == '-') ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) != 0 || text_[at_] == '.' ||
            text_[at_] == 'e' || text_[at_] == 'E' || text_[at_] == '+' || text_[at_] == '-')) {
      ++at_;
    }
    const std::string token(text_.substr(start, at_ - start));
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    char* end = nullptr;
    v.number = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') fail("malformed number '" + token + "'");
    return v;
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

bool is_number(const JsonValue* v) {
  // The writer encodes non-finite values as the strings "nan"/"inf"/"-inf";
  // schema-wise those still count as numeric fields.
  if (v == nullptr) return false;
  if (v->kind == JsonValue::Kind::kNumber) return true;
  return v->kind == JsonValue::Kind::kString &&
         (v->string == "nan" || v->string == "inf" || v->string == "-inf");
}

bool is_string(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::kString;
}

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

std::string JsonValue::string_or(const std::string& key, const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string : fallback;
}

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse_document(); }

std::vector<LedgerRun> read_ledger_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open ledger file '" + path + "'");
  std::vector<LedgerRun> runs;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    JsonValue row;
    try {
      row = parse_json(line);
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " + e.what());
    }
    const std::string type = row.string_or("type", "");
    if (type == "manifest") {
      runs.emplace_back();
      runs.back().manifest = std::move(row);
    } else if (runs.empty()) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": row of type '" + type + "' before any manifest");
    } else if (type == "iteration") {
      runs.back().iterations.push_back(std::move(row));
    } else if (type == "alert") {
      runs.back().alerts.push_back(std::move(row));
    } else if (type == "remediation") {
      runs.back().remediations.push_back(std::move(row));
    } else if (type == "summary") {
      runs.back().summary = std::move(row);
    } else if (type == "critpath") {
      runs.back().critpath = std::move(row);
    } else {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": unknown row type '" +
                               type + "'");
    }
  }
  return runs;
}

std::vector<std::string> validate_ledger(const std::vector<LedgerRun>& runs) {
  std::vector<std::string> problems;
  auto complain = [&problems](std::size_t run, const std::string& what) {
    std::ostringstream out;
    out << "run " << run << ": " << what;
    problems.push_back(out.str());
  };

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const LedgerRun& run = runs[i];
    for (const char* key : {"trainer", "compressor"}) {
      if (!is_string(run.manifest.find(key))) {
        complain(i, std::string("manifest missing string field '") + key + "'");
      }
    }
    for (const char* key : {"ranks", "iterations", "seed", "fault_rate"}) {
      if (!is_number(run.manifest.find(key))) {
        complain(i, std::string("manifest missing numeric field '") + key + "'");
      }
    }
    const JsonValue* network = run.manifest.find("network");
    if (network == nullptr || network->kind != JsonValue::Kind::kObject) {
      complain(i, "manifest missing 'network' object");
    } else {
      for (const char* key : {"latency_s", "bandwidth_bytes_s", "loss_rate"}) {
        if (!is_number(network->find(key))) {
          complain(i, std::string("manifest network missing numeric field '") + key + "'");
        }
      }
    }

    for (std::size_t j = 0; j < run.iterations.size(); ++j) {
      const JsonValue& row = run.iterations[j];
      const JsonValue* iter = row.find("iter");
      if (!is_number(iter)) {
        complain(i, "iteration row missing numeric 'iter'");
      } else if (iter->kind == JsonValue::Kind::kNumber &&
                 static_cast<std::size_t>(iter->number) != j) {
        std::ostringstream out;
        out << "iteration rows not consecutive: row " << j << " has iter " << iter->number;
        complain(i, out.str());
      }
      for (const char* key : {"loss", "sim_time_s", "grad_norm"}) {
        if (!is_number(row.find(key))) {
          complain(i, std::string("iteration row missing numeric field '") + key + "'");
        }
      }
      const JsonValue* phases = row.find("phases");
      if (phases == nullptr || phases->kind != JsonValue::Kind::kObject) {
        complain(i, "iteration row missing 'phases' object");
      } else {
        for (const char* key : {"forward_s", "backward_s", "compress_s", "decompress_s"}) {
          if (!is_number(phases->find(key))) {
            complain(i, std::string("phases missing numeric field '") + key + "'");
          }
        }
      }
      const JsonValue* roundtrip = row.find("roundtrip");
      if (roundtrip == nullptr || roundtrip->kind != JsonValue::Kind::kObject) {
        complain(i, "iteration row missing 'roundtrip' object");
      } else {
        for (const char* key : {"alpha", "ratio", "rms_error", "max_error", "wire_bytes"}) {
          if (!is_number(roundtrip->find(key))) {
            complain(i, std::string("roundtrip missing numeric field '") + key + "'");
          }
        }
      }
      const JsonValue* collectives = row.find("collectives");
      if (collectives == nullptr || collectives->kind != JsonValue::Kind::kArray) {
        complain(i, "iteration row missing 'collectives' array");
      } else {
        for (const JsonValue& c : collectives->array) {
          if (!is_string(c.find("kind")) || !is_number(c.find("predicted_s")) ||
              !is_number(c.find("charged_s")) || !is_number(c.find("bytes"))) {
            complain(i, "collective entry missing kind/bytes/predicted_s/charged_s");
            break;
          }
        }
      }
    }

    for (const JsonValue& alert : run.alerts) {
      if (!is_string(alert.find("monitor")) || !is_number(alert.find("iter"))) {
        complain(i, "alert row missing 'monitor'/'iter'");
      }
    }
    for (const JsonValue& remediation : run.remediations) {
      if (!is_string(remediation.find("cause")) || !is_string(remediation.find("action")) ||
          !is_number(remediation.find("iter")) ||
          !is_number(remediation.find("iterations_to_recover"))) {
        complain(i, "remediation row missing cause/action/iter/iterations_to_recover");
      }
    }
    if (run.summary.kind == JsonValue::Kind::kObject) {
      if (!is_number(run.summary.find("iterations"))) {
        complain(i, "summary row missing numeric 'iterations'");
      } else if (run.summary.number_or("iterations", -1.0) !=
                 static_cast<double>(run.iterations.size())) {
        complain(i, "summary iteration count disagrees with iteration rows");
      }
      const JsonValue* collectives = run.summary.find("collectives");
      if (collectives == nullptr || collectives->kind != JsonValue::Kind::kObject) {
        complain(i, "summary row missing 'collectives' object");
      }
    }
    if (run.critpath.kind == JsonValue::Kind::kObject) {
      for (const char* key : {"iterations", "e2e_s", "comm_s", "comm_share",
                              "overlap_bound_s", "pipeline_bound_s"}) {
        if (!is_number(run.critpath.find(key))) {
          complain(i, std::string("critpath row missing numeric field '") + key + "'");
        }
      }
      const JsonValue* categories = run.critpath.find("categories");
      if (categories == nullptr || categories->kind != JsonValue::Kind::kObject) {
        complain(i, "critpath row missing 'categories' object");
      }
    }
  }
  return problems;
}

}  // namespace fftgrad::telemetry
