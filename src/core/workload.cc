#include "workload.hh"

#include "util/logging.hh"

namespace davf {

TraceSinkModel::TraceSinkModel(unsigned data_bits) : dataBits(data_bits)
{
    davf_assert(data_bits >= 1 && data_bits <= 32,
                "trace sink width out of range");
}

void
TraceSinkModel::reset(std::vector<bool> &outputs)
{
    log.clear();
    outputs.clear();
}

void
TraceSinkModel::clockEdge(const std::vector<bool> &inputs,
                          std::vector<bool> &outputs)
{
    if (inputs[dataBits]) {
        uint32_t word = 0;
        for (unsigned i = 0; i < dataBits; ++i)
            word |= uint32_t{inputs[i]} << i;
        log.push_back(word);
    }
    outputs.clear();
}

std::vector<uint64_t>
TraceSinkModel::snapshot() const
{
    std::vector<uint64_t> data;
    data.reserve(log.size() + 1);
    data.push_back(log.size());
    for (uint32_t word : log)
        data.push_back(word);
    return data;
}

void
TraceSinkModel::restore(const std::vector<uint64_t> &data)
{
    log.resize(static_cast<size_t>(data[0]));
    for (size_t i = 0; i < log.size(); ++i)
        log[i] = static_cast<uint32_t>(data[i + 1]);
}

std::vector<uint32_t>
TraceWorkload::outputTrace(const CycleSimulator &sim) const
{
    const auto &sink =
        static_cast<const TraceSinkModel &>(sim.behavModel(sinkCell));
    return sink.trace();
}

std::vector<uint32_t>
TraceWorkload::outputTrace(const VecSimulator &sim, unsigned lane) const
{
    const auto &sink = static_cast<const TraceSinkModel &>(
        sim.behavModel(sinkCell, lane));
    return sink.trace();
}

} // namespace davf
