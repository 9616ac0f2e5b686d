#include "hash.hh"

#include <sstream>

namespace davf {

std::string
fnv1a64Hex(std::string_view bytes)
{
    std::ostringstream os;
    os << std::hex << fnv1a64(bytes);
    return os.str();
}

} // namespace davf
