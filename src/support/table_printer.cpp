#include "support/table_printer.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/expect.hpp"

namespace ld::support {

namespace {

/// Terminal columns of a UTF-8 cell: one per code point (labels such as
/// "tally ε" would otherwise pad one column short).
std::size_t display_width(const std::string& text) {
    return static_cast<std::size_t>(std::count_if(text.begin(), text.end(), [](char c) {
        return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
    }));
}

}  // namespace

TablePrinter::TablePrinter(std::vector<std::string> headers, int precision)
    : headers_(std::move(headers)), precision_(precision) {
    expects(!headers_.empty(), "table must have at least one column");
    expects(precision_ >= 0 && precision_ <= 17, "precision out of range");
}

void TablePrinter::add_row(std::vector<Cell> cells) {
    expects(cells.size() == headers_.size(), "row width must match header width");
    rows_.push_back(std::move(cells));
}

std::string TablePrinter::format_cell(const Cell& cell) const {
    std::ostringstream os;
    if (const auto* s = std::get_if<std::string>(&cell)) {
        os << *s;
    } else if (const auto* i = std::get_if<long long>(&cell)) {
        os << *i;
    } else {
        os << std::fixed << std::setprecision(precision_) << std::get<double>(cell);
    }
    return os.str();
}

void TablePrinter::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = display_width(headers_[c]);
    std::vector<std::vector<std::string>> rendered;
    rendered.reserve(rows_.size());
    for (const auto& row : rows_) {
        std::vector<std::string> r;
        r.reserve(row.size());
        for (std::size_t c = 0; c < row.size(); ++c) {
            r.push_back(format_cell(row[c]));
            widths[c] = std::max(widths[c], display_width(r.back()));
        }
        rendered.push_back(std::move(r));
    }
    const auto emit_row = [&](const std::vector<std::string>& cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "| " : " | ") << std::string(widths[c] - display_width(cells[c]), ' ')
               << cells[c];
        }
        os << " |\n";
    };
    emit_row(headers_);
    for (std::size_t c = 0; c < widths.size(); ++c) {
        os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
    }
    os << "-|\n";
    for (const auto& r : rendered) emit_row(r);
}

}  // namespace ld::support
