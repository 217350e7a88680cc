#include "engine/codec.h"

#include <algorithm>

#include "common/varint.h"

namespace streamshare::engine {

namespace {

// One node's header after its name tag: text length, raw text, child
// count. The children follow it.
void PutNodeRest(std::string* out, std::string_view text,
                 uint64_t child_count) {
  PutVarint(out, text.size());
  out->append(text);
  PutVarint(out, child_count);
}

// The two tag forms of a name.
void PutNameReference(std::string* out, uint64_t id) {
  PutVarint(out, (id + 1) << 1);
}
void PutNameLiteral(std::string* out, std::string_view name) {
  PutVarint(out, (static_cast<uint64_t>(name.size()) << 1) | 1);
  out->append(name);
}

// The pre-order walks every encoding shares: `node(name, text,
// child_count)` once per node, children right after their parent.
template <typename NodeFn>
void WalkTree(const xml::XmlNode& tree, const NodeFn& node) {
  node(tree.name(), tree.text(), tree.children().size());
  for (const auto& child : tree.children()) WalkTree(*child, node);
}

template <typename NodeFn>
void WalkRecord(const PhotonRecord& record, int at, const NodeFn& node) {
  int field = PhotonSchema::FieldOf(at);
  uint64_t child_count = 0;
  for (int child : PhotonSchema::Children(at)) {
    if (record.has_node(child)) ++child_count;
  }
  node(PhotonSchema::Name(at),
       field >= 0 ? record.text(field) : std::string_view(), child_count);
  for (int child : PhotonSchema::Children(at)) {
    if (record.has_node(child)) WalkRecord(record, child, node);
  }
}

}  // namespace

void ItemEncoder::Encode(const xml::XmlNode& node, std::string* out) {
  out->reserve(out->size() + node.SerializedSize());
  WalkTree(node, [&](std::string_view name, std::string_view text,
                     uint64_t child_count) {
    EncodeNode(name, text, child_count, out);
  });
}

void ItemEncoder::EncodeNode(std::string_view name, std::string_view text,
                             uint64_t child_count, std::string* out) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    PutNameReference(out, it->second);
  } else {
    PutNameLiteral(out, name);
    if (ids_.size() < kMaxDictionaryNames) {
      ids_.emplace(std::string(name), ids_.size());
    }
  }
  PutNodeRest(out, text, child_count);
}

void ItemEncoder::Reset() { ids_.clear(); }

void ItemWriter::Begin(std::string* out) {
  out_ = out;
  names_.clear();
  xml_size_ = 0;
  content_hash_ = kContentHashSeed;
}

void ItemWriter::Node(std::string_view name, std::string_view text,
                      uint64_t child_count) {
  auto known = std::find(names_.begin(), names_.end(), name);
  if (known != names_.end()) {
    PutNameReference(out_, static_cast<uint64_t>(known - names_.begin()));
  } else {
    PutNameLiteral(out_, name);
    if (names_.size() < kMaxDictionaryNames) names_.push_back(name);
  }
  PutNodeRest(out_, text, child_count);
  // XmlNode::SerializedSize: an element with neither text nor children
  // serializes as one empty tag.
  xml_size_ += xml::XmlNode::TagBytes(name.size(),
                                      child_count == 0 && text.empty()) +
               xml::XmlNode::EscapedTextBytes(text);
  content_hash_ = MixContentHash(content_hash_, name);
  content_hash_ = MixContentHash(content_hash_, text);
}

void ItemWriter::Record(const PhotonRecord& record, int node) {
  WalkRecord(record, node,
             [this](std::string_view name, std::string_view text,
                    uint64_t child_count) { Node(name, text, child_count); });
}

void ItemWriter::Tree(const xml::XmlNode& node) {
  WalkTree(node, [this](std::string_view name, std::string_view text,
                        uint64_t child_count) {
    Node(name, text, child_count);
  });
}

Status ItemDecoder::Decode(std::string_view data,
                           std::unique_ptr<xml::XmlNode>* out) {
  SS_RETURN_IF_ERROR(DecodeNode(&data, 0, out));
  if (!data.empty()) {
    return Status::ParseError("item decode: trailing bytes after tree");
  }
  return Status::Ok();
}

Status ItemDecoder::DecodeNode(std::string_view* data, size_t depth,
                               std::unique_ptr<xml::XmlNode>* out) {
  if (depth > kMaxDecodeDepth) {
    return Status::ParseError("item decode: nesting too deep");
  }
  uint64_t tag = 0;
  if (!GetVarint(data, &tag) || tag == 0) {
    return Status::ParseError("item decode: bad tag varint");
  }
  std::string name;
  if (tag & 1) {
    uint64_t len = tag >> 1;
    if (len == 0 || len > data->size()) {
      return Status::ParseError("item decode: bad literal name length");
    }
    name.assign(data->substr(0, len));
    data->remove_prefix(len);
    if (names_.size() < kMaxDictionaryNames) names_.push_back(name);
  } else {
    uint64_t id = (tag >> 1) - 1;
    if (id >= names_.size()) {
      return Status::ParseError(
          "item decode: unknown dictionary reference (dictionaries out of "
          "sync — one-sided link reset?)");
    }
    name = names_[id];
  }
  auto node = std::make_unique<xml::XmlNode>(std::move(name));
  uint64_t text_len = 0;
  if (!GetVarint(data, &text_len) || text_len > data->size()) {
    return Status::ParseError("item decode: bad text length");
  }
  if (text_len > 0) {
    node->set_text(std::string(data->substr(0, text_len)));
    data->remove_prefix(text_len);
  }
  uint64_t child_count = 0;
  if (!GetVarint(data, &child_count) || child_count > data->size()) {
    // Every child costs at least one byte, so a count beyond the
    // remaining bytes is corruption — reject before looping on it.
    return Status::ParseError("item decode: bad child count");
  }
  // A child is at least 3 bytes (tag, text length, child count), which
  // bounds how much reserving up front can over-allocate on a frame that
  // lies about its count.
  node->ReserveChildren(
      std::min<uint64_t>(child_count, data->size() / 3 + 1));
  for (uint64_t i = 0; i < child_count; ++i) {
    std::unique_ptr<xml::XmlNode> child;
    SS_RETURN_IF_ERROR(DecodeNode(data, depth + 1, &child));
    node->AddChild(std::move(child));
  }
  *out = std::move(node);
  return Status::Ok();
}

void ItemDecoder::Reset() { names_.clear(); }

}  // namespace streamshare::engine
