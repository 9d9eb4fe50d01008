// CSV + metadata-sidecar interchange (paper §5.6): the paper concludes that
// data management systems and statistical packages "will continue their
// independent existence. Therefore, clean interfaces between them is the key
// to future integration". This module is that clean interface: a statistical
// object round-trips through a CSV body (the macro-data) plus a plain-text
// metadata header carrying exactly what a bare CSV loses — which columns are
// category vs summary attributes, measure types/units/functions, dimension
// kinds, and classification hierarchies.

#ifndef STATCUBE_IO_CSV_H_
#define STATCUBE_IO_CSV_H_

#include <string>

#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/relational/table.h"

namespace statcube {

/// Serializes a table as RFC-4180-ish CSV (header row; quotes doubled;
/// fields with commas/quotes/newlines quoted; NULL as empty, ALL as the
/// reserved word ALL). Doubles are exact (FormatDouble, with ".0" appended
/// when the text would read back as an integer), so ReadCsv returns the
/// same type and bits.
std::string WriteCsv(const Table& table);

/// Parses CSV into a table. All columns are typed kString except values that
/// parse fully as integers/doubles; empty fields become NULL; "ALL" becomes
/// the ALL pseudo-value.
Result<Table> ReadCsv(const std::string& csv, const std::string& table_name);

/// Serializes the object: a "# statcube-object v1" metadata block (the
/// semantics a statistical package needs) followed by the CSV body.
std::string ExportObject(const StatisticalObject& obj);

/// Reconstructs an object from ExportObject's output, including dimensions,
/// kinds, measures, and classification hierarchies.
Result<StatisticalObject> ImportObject(const std::string& text);

}  // namespace statcube

#endif  // STATCUBE_IO_CSV_H_
