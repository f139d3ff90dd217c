#include "hw/rpau.h"

#include "common/panic.h"

namespace heat::hw {

size_t
rpauForResidue(size_t residue, size_t q_prime_count)
{
    return residue < q_prime_count ? residue : residue - q_prime_count;
}

int
batchOfResidue(size_t residue, size_t q_prime_count)
{
    return residue < q_prime_count ? 0 : 1;
}

std::vector<size_t>
residuesOfBatch(int batch, size_t q_prime_count, size_t total)
{
    panicIf(batch != 0 && batch != 1, "batch must be 0 or 1");
    std::vector<size_t> out;
    if (batch == 0) {
        for (size_t k = 0; k < q_prime_count && k < total; ++k)
            out.push_back(k);
    } else {
        for (size_t k = q_prime_count; k < total; ++k)
            out.push_back(k);
    }
    return out;
}

} // namespace heat::hw
