#include "feed/record_parser.h"

#include <cstdlib>

#include "adm/json.h"
#include "common/string_util.h"

namespace idea::feed {

Result<adm::Value> JsonRecordParser::Parse(const std::string& raw) {
  IDEA_ASSIGN_OR_RETURN(adm::Value record, adm::ParseJson(raw));
  if (datatype_ != nullptr) IDEA_RETURN_NOT_OK(datatype_->ValidateAndCoerce(&record));
  return record;
}

Result<adm::Value> DelimitedRecordParser::Parse(const std::string& raw) {
  std::vector<std::string> pieces = SplitString(raw, delimiter_);
  if (pieces.size() != fields_.size()) {
    return Status::ParseError("expected " + std::to_string(fields_.size()) +
                              " fields, got " + std::to_string(pieces.size()));
  }
  adm::Fields out;
  out.reserve(fields_.size());
  for (size_t i = 0; i < fields_.size(); ++i) {
    const std::string& s = pieces[i];
    // Numeric-looking values become numbers; the datatype coercion below can
    // refine further (datetime, point, ...).
    char* end = nullptr;
    if (!s.empty()) {
      long long iv = std::strtoll(s.c_str(), &end, 10);
      if (end == s.c_str() + s.size()) {
        out.emplace_back(fields_[i], adm::Value::MakeInt(iv));
        continue;
      }
      double dv = std::strtod(s.c_str(), &end);
      if (end == s.c_str() + s.size()) {
        out.emplace_back(fields_[i], adm::Value::MakeDouble(dv));
        continue;
      }
    }
    out.emplace_back(fields_[i], adm::Value::MakeString(s));
  }
  adm::Value record = adm::Value::MakeObject(std::move(out));
  if (datatype_ != nullptr) IDEA_RETURN_NOT_OK(datatype_->ValidateAndCoerce(&record));
  return record;
}

Result<std::unique_ptr<RecordParser>> MakeParser(const std::string& format,
                                                 const adm::Datatype* datatype) {
  std::string f = ToLowerAscii(format);
  if (f == "json" || f.empty()) {
    return std::unique_ptr<RecordParser>(std::make_unique<JsonRecordParser>(datatype));
  }
  if (f == "delimited-text" || f == "delimited") {
    if (datatype == nullptr) {
      return Status::InvalidArgument("delimited-text format requires a datatype");
    }
    std::vector<std::string> names;
    for (const auto& field : datatype->fields()) names.push_back(field.name);
    return std::unique_ptr<RecordParser>(
        std::make_unique<DelimitedRecordParser>(std::move(names), '|', datatype));
  }
  return Status::NotSupported("unknown feed format '" + format + "'");
}

}  // namespace idea::feed
