/* numpy's SeedSequence mixing (numpy/random/bit_generator.pyx), for
 * repro._util.Seed: the same constants and the same order of
 * operations, so a seed's state words are the ones numpy's
 * SeedSequence with the same entropy and spawn key generates.
 *
 * repro_seed_state takes a seed's `n` entropy words: its run entropy
 * (the first `run` words), then its spawn key's words.  It assembles
 * them as SeedSequence.get_assembled_entropy does (a run shorter than
 * the pool is zero-padded to the pool size when a spawn key follows),
 * mixes them into numpy's four-word pool as SeedSequence.mix_entropy
 * does, and writes the first `n_words` words SeedSequence.
 * generate_state draws from that pool.  With `wide` set it writes
 * n_words uint64 values instead, each two consecutive words as numpy
 * pairs them (the first one low), in this machine's byte order.
 */

#include <stdint.h>

#define POOL_SIZE 4 /* numpy's DEFAULT_POOL_SIZE */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16 /* half a uint32's bits */

static uint32_t hashmix(uint32_t value, uint32_t *hash_const)
{
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    value ^= value >> XSHIFT;
    return value;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    result ^= result >> XSHIFT;
    return result;
}

/* Word `i` of the assembled entropy: the run, `pad` zeros, the key. */
static uint32_t assembled(const uint32_t *entropy, int run, int pad, int i)
{
    if (i < run)
        return entropy[i];
    return i < run + pad ? 0 : entropy[i - pad];
}

/* Called through ctypes without argtypes: the counts are C ints. */
int repro_seed_state(const uint32_t *entropy, int run, int n, void *out,
                     int n_words, int wide)
{
    uint32_t pool[POOL_SIZE];
    uint32_t hash_const = INIT_A;
    int pad = n > run && run < POOL_SIZE ? POOL_SIZE - run : 0;
    int size = n + pad;
    int i, j;

    /* The entropy up to the pool size, then the hash run out. */
    for (i = 0; i < POOL_SIZE; i++)
        pool[i] = hashmix(
            i < size ? assembled(entropy, run, pad, i) : 0, &hash_const
        );
    /* Every word into every other, so late bits reach early ones. */
    for (i = 0; i < POOL_SIZE; i++)
        for (j = 0; j < POOL_SIZE; j++)
            if (i != j)
                pool[j] = mix(pool[j], hashmix(pool[i], &hash_const));
    /* The entropy past the pool size, each word into every pool word. */
    for (i = POOL_SIZE; i < size; i++)
        for (j = 0; j < POOL_SIZE; j++)
            pool[j] = mix(
                pool[j], hashmix(assembled(entropy, run, pad, i), &hash_const)
            );

    hash_const = INIT_B;
    for (i = 0; i < (wide ? 2 * n_words : n_words); i++) {
        uint32_t word = pool[i % POOL_SIZE] ^ hash_const;
        hash_const *= MULT_B;
        word *= hash_const;
        word ^= word >> XSHIFT;
        if (!wide)
            ((uint32_t *)out)[i] = word;
        else if (i % 2 == 0)
            ((uint64_t *)out)[i / 2] = word;
        else
            ((uint64_t *)out)[i / 2] |= (uint64_t)word << 32;
    }
    return 0;
}
