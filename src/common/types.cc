#include "common/types.h"

#include <cctype>

namespace geotp {

std::string Xid::ToString() const {
  return "xid(" + std::to_string(txn_id) + "," + std::to_string(data_source) +
         ")";
}

std::vector<std::string> SplitStatFieldNames(const char* list) {
  std::vector<std::string> names(1);
  for (const char* p = list; *p != '\0'; ++p) {
    if (*p == ',') names.emplace_back();
    if (*p == '(') names.back().clear();  // drop the HighWater marker
    if (std::isalnum(static_cast<unsigned char>(*p)) || *p == '_') {
      names.back() += *p;
    }
  }
  return names;
}

std::string RecordKey::ToString() const {
  return "t" + std::to_string(table) + ":k" + std::to_string(key);
}

}  // namespace geotp
