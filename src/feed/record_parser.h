// Record parsers: translate raw adapter bytes into ADM records (paper §2.3 —
// "a parser, which translates the ingested bytes into ADM records").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adm/datatype.h"
#include "adm/value.h"
#include "common/status.h"

namespace idea::feed {

class RecordParser {
 public:
  virtual ~RecordParser() = default;
  virtual Result<adm::Value> Parse(const std::string& raw) = 0;
};

/// JSON parser with optional datatype validation/coercion.
class JsonRecordParser : public RecordParser {
 public:
  /// `datatype` may be nullptr (schemaless); must outlive the parser.
  explicit JsonRecordParser(const adm::Datatype* datatype = nullptr)
      : datatype_(datatype) {}
  Result<adm::Value> Parse(const std::string& raw) override;

 private:
  const adm::Datatype* datatype_;
};

/// Delimited-text parser: maps `a|b|c` onto the given field names. Values
/// are typed via the datatype when provided, otherwise kept as strings.
class DelimitedRecordParser : public RecordParser {
 public:
  DelimitedRecordParser(std::vector<std::string> field_names, char delimiter,
                        const adm::Datatype* datatype = nullptr)
      : fields_(std::move(field_names)), delimiter_(delimiter), datatype_(datatype) {}
  Result<adm::Value> Parse(const std::string& raw) override;

 private:
  std::vector<std::string> fields_;
  char delimiter_;
  const adm::Datatype* datatype_;
};

/// Builds a parser from a feed's "format" config value ("JSON" or
/// "delimited-text" with a field list).
Result<std::unique_ptr<RecordParser>> MakeParser(const std::string& format,
                                                 const adm::Datatype* datatype);

}  // namespace idea::feed
