#include "core/study.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/logging.hh"
#include "stats/ci.hh"

namespace tpv {
namespace core {

const StudyCell &
StudyGrid::at(const std::string &config, double qps) const
{
    for (const StudyCell &c : cells) {
        if (c.config == config && c.qps == qps)
            return c;
    }
    panic("study cell not found: ", config, " @ ", qps, " qps");
}

std::vector<std::string>
StudyGrid::configs() const
{
    std::vector<std::string> out;
    for (const StudyCell &c : cells) {
        if (std::find(out.begin(), out.end(), c.config) == out.end())
            out.push_back(c.config);
    }
    return out;
}

std::vector<double>
StudyGrid::loads() const
{
    std::vector<double> out;
    for (const StudyCell &c : cells) {
        if (std::find(out.begin(), out.end(), c.qps) == out.end())
            out.push_back(c.qps);
    }
    return out;
}

double
slowdownAvg(const RepeatedResult &numerator,
            const RepeatedResult &denominator)
{
    return numerator.meanAvg() / denominator.meanAvg();
}

double
slowdownP99(const RepeatedResult &numerator,
            const RepeatedResult &denominator)
{
    return numerator.meanP99() / denominator.meanP99();
}

int
confidentAvgOrdering(const RepeatedResult &a, const RepeatedResult &b)
{
    return stats::confidentOrdering(a.avgCI(), b.avgCI());
}

TableReporter::TableReporter(std::string title) : title_(std::move(title))
{
}

void
TableReporter::header(const std::vector<std::string> &cols)
{
    cols_ = cols;
}

void
TableReporter::row(const std::string &label,
                   const std::vector<double> &values)
{
    TPV_ASSERT(cols_.empty() || values.size() + 1 == cols_.size(),
               "row width does not match header");
    rows_.push_back(Row{label, values});
}

void
TableReporter::print() const
{
    std::printf("\n== %s ==\n", title_.c_str());
    if (!cols_.empty()) {
        std::printf("%-14s", cols_[0].c_str());
        for (std::size_t i = 1; i < cols_.size(); ++i)
            std::printf(" %14s", cols_[i].c_str());
        std::printf("\n");
    }
    for (const Row &r : rows_) {
        std::printf("%-14s", r.label.c_str());
        for (double v : r.values)
            std::printf(" %14.3f", v);
        std::printf("\n");
    }
}

std::string
TableReporter::csv() const
{
    std::string out;
    char buf[64];
    for (std::size_t i = 0; i < cols_.size(); ++i) {
        out += cols_[i];
        out += (i + 1 < cols_.size()) ? "," : "\n";
    }
    for (const Row &r : rows_) {
        out += r.label;
        for (double v : r.values) {
            std::snprintf(buf, sizeof(buf), ",%.6g", v);
            out += buf;
        }
        out += "\n";
    }
    return out;
}

} // namespace core
} // namespace tpv
