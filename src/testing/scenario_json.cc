#include "testing/scenario_json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace streamshare::testing {

namespace {

// ---------------------------------------------------------------- writing

std::string NumberToJson(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string StringToJson(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string OptionalToJson(const std::optional<double>& value) {
  return value ? NumberToJson(*value) : "null";
}

// 64-bit seeds as strings: a JSON number is a double and drops bits past
// 2^53.
std::string SeedToJson(uint64_t seed) {
  return "\"" + std::to_string(seed) + "\"";
}

// ---------------------------------------------------------------- parsing

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SS_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing bytes after JSON value");
    }
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') {
      if (text_.substr(pos_, 4) != "null") {
        return Status::ParseError("bad literal");
      }
      pos_ += 4;
      return JsonValue{};
    }
    return ParseNumber();
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.substr(pos_, 4) == "true") {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return value;
    }
    return Status::ParseError("bad literal");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return Status::ParseError("expected number");
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.string.assign(text_.substr(start, pos_ - start));
    char* end = nullptr;
    value.number = std::strtod(value.string.c_str(), &end);
    if (end != value.string.c_str() + value.string.size()) {
      return Status::ParseError("malformed number '" + value.string + "'");
    }
    return value;
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // opening quote
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return Status::ParseError("unterminated escape");
        }
        c = text_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
      }
      value.string += c;
    }
    if (pos_ >= text_.size()) return Status::ParseError("unterminated string");
    ++pos_;  // closing quote
    return value;
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      SS_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return Status::ParseError("unclosed array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return value;
      }
      return Status::ParseError("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Status::ParseError("expected object key");
      }
      SS_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::ParseError("expected ':'");
      }
      ++pos_;
      SS_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.object.emplace(std::move(key.string), std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return Status::ParseError("unclosed object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return value;
      }
      return Status::ParseError("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Typed field access.
Result<const JsonValue*> Field(const JsonValue& object,
                               const std::string& key) {
  auto it = object.object.find(key);
  if (it == object.object.end()) {
    return Status::ParseError("missing field '" + key + "'");
  }
  return &it->second;
}

Result<double> NumField(const JsonValue& object, const std::string& key) {
  SS_ASSIGN_OR_RETURN(const JsonValue* value, Field(object, key));
  if (value->type != JsonValue::Type::kNumber) {
    return Status::ParseError("field '" + key + "' is not a number");
  }
  return value->number;
}

Result<std::string> StrField(const JsonValue& object,
                             const std::string& key) {
  SS_ASSIGN_OR_RETURN(const JsonValue* value, Field(object, key));
  if (value->type != JsonValue::Type::kString) {
    return Status::ParseError("field '" + key + "' is not a string");
  }
  return value->string;
}

Result<uint64_t> SeedField(const JsonValue& object, const std::string& key) {
  SS_ASSIGN_OR_RETURN(std::string text, StrField(object, key));
  char* end = nullptr;
  uint64_t seed = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return Status::ParseError("field '" + key + "' is not a seed");
  }
  return seed;
}

Result<std::optional<double>> OptField(const JsonValue& object,
                                       const std::string& key) {
  SS_ASSIGN_OR_RETURN(const JsonValue* value, Field(object, key));
  if (value->type == JsonValue::Type::kNull) {
    return std::optional<double>();
  }
  if (value->type != JsonValue::Type::kNumber) {
    return Status::ParseError("field '" + key + "' is not a number/null");
  }
  return std::optional<double>(value->number);
}

}  // namespace

std::string ToJson(const FuzzScenario& scenario) {
  std::ostringstream out;
  out << "{\n  \"seed\": " << SeedToJson(scenario.seed) << ",\n";
  out << "  \"topology\": {\"peers\": " << scenario.topology.peers
      << ", \"bandwidth_kbps\": "
      << NumberToJson(scenario.topology.bandwidth_kbps)
      << ", \"max_load\": " << NumberToJson(scenario.topology.max_load)
      << ", \"links\": [";
  for (size_t i = 0; i < scenario.topology.links.size(); ++i) {
    if (i > 0) out << ", ";
    out << "[" << scenario.topology.links[i].first << ", "
        << scenario.topology.links[i].second << "]";
  }
  out << "]},\n  \"boxes\": [";
  for (size_t i = 0; i < scenario.boxes.size(); ++i) {
    const workload::SkyBox& box = scenario.boxes[i];
    if (i > 0) out << ", ";
    out << "[" << NumberToJson(box.ra_min) << ", "
        << NumberToJson(box.ra_max) << ", " << NumberToJson(box.dec_min)
        << ", " << NumberToJson(box.dec_max) << "]";
  }
  out << "],\n  \"streams\": [";
  for (size_t i = 0; i < scenario.streams.size(); ++i) {
    const FuzzStreamSpec& stream = scenario.streams[i];
    if (i > 0) out << ",";
    out << "\n    {\"name\": " << StringToJson(stream.name)
        << ", \"source\": " << stream.source
        << ", \"gen_seed\": " << SeedToJson(stream.gen_seed)
        << ", \"frequency_hz\": " << NumberToJson(stream.frequency_hz)
        << ", \"det_time_increment_mean\": "
        << NumberToJson(stream.det_time_increment_mean)
        << ", \"hot_weights\": [";
    for (size_t w = 0; w < stream.hot_weights.size(); ++w) {
      if (w > 0) out << ", ";
      out << NumberToJson(stream.hot_weights[w]);
    }
    out << "]}";
  }
  out << "\n  ],\n  \"queries\": [";
  for (size_t i = 0; i < scenario.queries.size(); ++i) {
    const FuzzQuerySpec& query = scenario.queries[i];
    if (i > 0) out << ",";
    out << "\n    {\"kind\": "
        << (query.kind == FuzzQuerySpec::Kind::kSelection
                ? "\"selection\""
                : "\"aggregation\"")
        << ", \"stream\": " << StringToJson(query.stream)
        << ", \"target\": " << query.target
        << ", \"ra_min\": " << OptionalToJson(query.ra_min)
        << ", \"ra_max\": " << OptionalToJson(query.ra_max)
        << ", \"dec_min\": " << OptionalToJson(query.dec_min)
        << ", \"dec_max\": " << OptionalToJson(query.dec_max)
        << ", \"en_threshold\": " << OptionalToJson(query.en_threshold)
        << ", \"det_skew\": " << OptionalToJson(query.det_skew)
        << ", \"projection\": [";
    for (size_t p = 0; p < query.projection.size(); ++p) {
      if (p > 0) out << ", ";
      out << StringToJson(query.projection[p]);
    }
    out << "], \"window_type\": "
        << (query.window_type == properties::WindowType::kDiff
                ? "\"diff\""
                : "\"count\"")
        << ", \"window_size\": " << query.window_size
        << ", \"window_step\": " << query.window_step
        << ", \"agg_func\": " << StringToJson(query.agg_func)
        << ", \"agg_filter\": " << OptionalToJson(query.agg_filter) << "}";
  }
  out << "\n  ],\n";
  // Omitted entirely for clean scenarios: their JSON stays byte-identical
  // to the format written before churn existed.
  if (!scenario.churn.empty()) {
    out << "  \"churn\": [";
    for (size_t i = 0; i < scenario.churn.size(); ++i) {
      const workload::ChurnEvent& event = scenario.churn[i];
      if (i > 0) out << ", ";
      if (event.kind == workload::ChurnEvent::Kind::kFailPeer) {
        out << "{\"kind\": \"fail-peer\", \"peer\": " << event.peer;
      } else {
        out << "{\"kind\": \"cut-link\", \"link_a\": " << event.link_a
            << ", \"link_b\": " << event.link_b;
      }
      out << ", \"at_offset\": " << event.at_offset << "}";
    }
    out << "],\n";
  }
  out << "  \"items_per_stream\": " << scenario.items_per_stream
      << "\n}\n";
  return out.str();
}

Result<FuzzScenario> FromJson(std::string_view json) {
  JsonParser parser(json);
  SS_ASSIGN_OR_RETURN(JsonValue root, parser.Parse());
  if (root.type != JsonValue::Type::kObject) {
    return Status::ParseError("scenario JSON is not an object");
  }
  FuzzScenario scenario;
  SS_ASSIGN_OR_RETURN(scenario.seed, SeedField(root, "seed"));

  SS_ASSIGN_OR_RETURN(const JsonValue* topology, Field(root, "topology"));
  SS_ASSIGN_OR_RETURN(double peers, NumField(*topology, "peers"));
  scenario.topology.peers = static_cast<int>(peers);
  SS_ASSIGN_OR_RETURN(scenario.topology.bandwidth_kbps,
                      NumField(*topology, "bandwidth_kbps"));
  SS_ASSIGN_OR_RETURN(scenario.topology.max_load,
                      NumField(*topology, "max_load"));
  SS_ASSIGN_OR_RETURN(const JsonValue* links, Field(*topology, "links"));
  for (const JsonValue& link : links->array) {
    if (link.array.size() != 2) {
      return Status::ParseError("link is not a pair");
    }
    scenario.topology.links.emplace_back(
        static_cast<int>(link.array[0].number),
        static_cast<int>(link.array[1].number));
  }

  SS_ASSIGN_OR_RETURN(const JsonValue* boxes, Field(root, "boxes"));
  for (const JsonValue& box : boxes->array) {
    if (box.array.size() != 4) return Status::ParseError("box is not 4-ary");
    scenario.boxes.push_back({box.array[0].number, box.array[1].number,
                              box.array[2].number, box.array[3].number});
  }

  SS_ASSIGN_OR_RETURN(const JsonValue* streams, Field(root, "streams"));
  for (const JsonValue& entry : streams->array) {
    FuzzStreamSpec stream;
    SS_ASSIGN_OR_RETURN(stream.name, StrField(entry, "name"));
    SS_ASSIGN_OR_RETURN(double source, NumField(entry, "source"));
    stream.source = static_cast<network::NodeId>(source);
    SS_ASSIGN_OR_RETURN(stream.gen_seed, SeedField(entry, "gen_seed"));
    SS_ASSIGN_OR_RETURN(stream.frequency_hz,
                        NumField(entry, "frequency_hz"));
    SS_ASSIGN_OR_RETURN(stream.det_time_increment_mean,
                        NumField(entry, "det_time_increment_mean"));
    SS_ASSIGN_OR_RETURN(const JsonValue* weights,
                        Field(entry, "hot_weights"));
    for (const JsonValue& weight : weights->array) {
      stream.hot_weights.push_back(weight.number);
    }
    scenario.streams.push_back(std::move(stream));
  }

  SS_ASSIGN_OR_RETURN(const JsonValue* queries, Field(root, "queries"));
  for (const JsonValue& entry : queries->array) {
    FuzzQuerySpec query;
    SS_ASSIGN_OR_RETURN(std::string kind, StrField(entry, "kind"));
    if (kind == "selection") {
      query.kind = FuzzQuerySpec::Kind::kSelection;
    } else if (kind == "aggregation") {
      query.kind = FuzzQuerySpec::Kind::kAggregation;
    } else {
      return Status::ParseError("unknown query kind '" + kind + "'");
    }
    SS_ASSIGN_OR_RETURN(query.stream, StrField(entry, "stream"));
    SS_ASSIGN_OR_RETURN(double target, NumField(entry, "target"));
    query.target = static_cast<network::NodeId>(target);
    SS_ASSIGN_OR_RETURN(query.ra_min, OptField(entry, "ra_min"));
    SS_ASSIGN_OR_RETURN(query.ra_max, OptField(entry, "ra_max"));
    SS_ASSIGN_OR_RETURN(query.dec_min, OptField(entry, "dec_min"));
    SS_ASSIGN_OR_RETURN(query.dec_max, OptField(entry, "dec_max"));
    SS_ASSIGN_OR_RETURN(query.en_threshold,
                        OptField(entry, "en_threshold"));
    SS_ASSIGN_OR_RETURN(query.det_skew, OptField(entry, "det_skew"));
    SS_ASSIGN_OR_RETURN(const JsonValue* projection,
                        Field(entry, "projection"));
    for (const JsonValue& path : projection->array) {
      query.projection.push_back(path.string);
    }
    SS_ASSIGN_OR_RETURN(std::string window_type,
                        StrField(entry, "window_type"));
    query.window_type = window_type == "diff"
                            ? properties::WindowType::kDiff
                            : properties::WindowType::kCount;
    SS_ASSIGN_OR_RETURN(double size, NumField(entry, "window_size"));
    SS_ASSIGN_OR_RETURN(double step, NumField(entry, "window_step"));
    query.window_size = static_cast<int>(size);
    query.window_step = static_cast<int>(step);
    SS_ASSIGN_OR_RETURN(query.agg_func, StrField(entry, "agg_func"));
    SS_ASSIGN_OR_RETURN(query.agg_filter, OptField(entry, "agg_filter"));
    scenario.queries.push_back(std::move(query));
  }

  // Optional for compatibility: reproducers written before churn existed
  // have no "churn" field and replay as clean scenarios. Events may come
  // in any order: every arm replays them through workload::ChurnWalk.
  if (root.object.count("churn") != 0) {
    SS_ASSIGN_OR_RETURN(const JsonValue* churn, Field(root, "churn"));
    for (const JsonValue& entry : churn->array) {
      workload::ChurnEvent event;
      SS_ASSIGN_OR_RETURN(std::string kind, StrField(entry, "kind"));
      if (kind == "fail-peer") {
        event.kind = workload::ChurnEvent::Kind::kFailPeer;
        SS_ASSIGN_OR_RETURN(double peer, NumField(entry, "peer"));
        event.peer = static_cast<int>(peer);
      } else if (kind == "cut-link") {
        event.kind = workload::ChurnEvent::Kind::kCutLink;
        SS_ASSIGN_OR_RETURN(double a, NumField(entry, "link_a"));
        SS_ASSIGN_OR_RETURN(double b, NumField(entry, "link_b"));
        event.link_a = static_cast<int>(a);
        event.link_b = static_cast<int>(b);
      } else {
        return Status::ParseError("unknown churn kind '" + kind + "'");
      }
      SS_ASSIGN_OR_RETURN(double offset, NumField(entry, "at_offset"));
      event.at_offset = static_cast<size_t>(offset);
      scenario.churn.push_back(event);
    }
  }

  SS_ASSIGN_OR_RETURN(double items, NumField(root, "items_per_stream"));
  scenario.items_per_stream = static_cast<size_t>(items);
  return scenario;
}

Status WriteScenarioFile(const FuzzScenario& scenario,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open '" + path + "' for write");
  out << ToJson(scenario);
  out.close();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::Ok();
}

Result<FuzzScenario> ReadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJson(buffer.str());
}

}  // namespace streamshare::testing
