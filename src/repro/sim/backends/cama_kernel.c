/* cama_kernel.c — the bit-parallel automata step loop, in C.
 *
 * This is the native half of `repro.sim.backends.native`: the exact
 * packed-uint64 semantics of the pure-numpy BitParallelKernel
 * (per-symbol match masks, successor-row OR-reduce, report
 * extraction), with the per-cycle Python/numpy dispatch overhead
 * removed.  The Python side owns all memory: every pointer passed in
 * is a C-contiguous numpy array, and the function is pure compute —
 * no allocation, no globals, no Python API — so ctypes can call it
 * with the GIL released and rows of a batch can be stepped from the
 * same tables concurrently.
 *
 * Work follows activity, not capacity.  A cycle is
 *
 *     enabled = start_all | OR(succ_rows[s] for s in active)
 *     active' = enabled & match_words[symbol]
 *
 * and three tables derived once per kernel (native.py:_bind_native)
 * keep every step of it off the full `words`-wide bitmap:
 *
 *   - succ_span[s] = (first, count): the word slice of succ_rows[s]
 *     that is non-zero.  Successors stay inside a state's connected
 *     component, so with component-by-component numbering the slice
 *     is a word or two however wide the automaton is; only it is
 *     ORed.
 *   - start_match[symbol] = start_all & match_words[symbol], with its
 *     popcount (start_active), its non-zero-word summary
 *     (start_summary) and an any-reporting flag (start_reports).  The
 *     always-enabled starts contribute the same bits every time a
 *     symbol is seen, so a cycle *begins* as a copy of that row plus
 *     constants, and only `extra = dyn & ~start_all` — the successor
 *     bits that are not starts anyway — is counted and matched.
 *   - summary bitmaps, one bit per word (`ceil(words / 64)` uint64s):
 *     `live` marks the non-zero words of `active`, `touched` the words
 *     the successor OR wrote.  Both passes iterate set bits of a
 *     summary, so idle words are never read.
 *
 * One cycle is exempt: absolute cycle 0 enables `start_first`
 * (start_all plus the START_OF_DATA states) instead of start_all,
 * which no per-symbol table covers, so it runs full width — once per
 * stream.  Report extraction, the budget and the pause contract below
 * are full width too: they only run on cycles that report.
 *
 * The file compiles two ways:
 *
 *   - at install time by setup.py as the extension module
 *     `repro.sim.backends._cama_native` (CAMA_BUILD_PYEXT defined; a
 *     stub PyInit_ is appended so setuptools can build it — the
 *     symbol below is still read via ctypes.CDLL on the .so, never
 *     through Python imports);
 *
 *   - at runtime by `cc -O3 -shared -fPIC` into a per-user cache when
 *     the package was never installed with a compiler at hand.  This
 *     path deliberately needs no Python headers, and no -march flag:
 *     the digest-keyed cache may be shared between hosts.
 *
 * Report-buffer contract (resumability): the caller hands a bounded
 * (cycle, state) scratch buffer.  Before every cycle the loop checks
 * that a worst-case report burst — every reporting state firing at
 * once, `nrep_total` — still fits; if not it returns early with the
 * next unconsumed offset so Python can drain the buffer and resume.
 * A capacity >= nrep_total therefore guarantees forward progress.
 */

#include <stdint.h>
#include <string.h>

/* Without -mpopcnt (the runtime build passes no -m flag) the builtin
 * compiles to a libgcc call per word; the SWAR form stays inline. */
#if defined(__POPCNT__) && (defined(__GNUC__) || defined(__clang__))
#define CAMA_POPCOUNT64(x) ((int64_t)__builtin_popcountll(x))
#else
static inline int64_t cama_popcount_swar(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (int64_t)((x * 0x0101010101010101ull) >> 56);
}
#define CAMA_POPCOUNT64(x) cama_popcount_swar(x)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define CAMA_CTZ64(x) ((int64_t)__builtin_ctzll(x))
#else
static int64_t cama_ctz_soft(uint64_t x) {
    /* popcount of the bits below the lowest set one */
    return cama_popcount_swar((x & (0 - x)) - 1);
}
#define CAMA_CTZ64(x) cama_ctz_soft(x)
#endif

#if defined(__GNUC__) || defined(__clang__)
#define CAMA_ALWAYS_INLINE inline __attribute__((always_inline))
#define CAMA_RESTRICT __restrict__
#else
#define CAMA_ALWAYS_INLINE inline
#define CAMA_RESTRICT
#endif

/* counters layout (this call's totals, written on return) */
enum {
    CAMA_CTR_ENABLED_SUM = 0, /* sum of enabled-state counts per cycle   */
    CAMA_CTR_ACTIVE_SUM = 1,  /* sum of active-state counts per cycle    */
    CAMA_CTR_FIRED = 2,       /* reports fired (recorded or not)         */
    CAMA_CTR_RECORDED = 3,    /* reports written to rep_cycles/rep_states */
    CAMA_CTR_TRUNCATED = 4,   /* 1 if any firing report exceeded budget  */
    CAMA_CTR_COUNT = 5
};

/* Per-kernel read-only tables; mirrored field for field by the ctypes
 * structure in native.py (`swords` below is ceil(words / 64)). */
typedef struct {
    const uint64_t *match_words;   /* (256, words) per-symbol match masks  */
    const uint64_t *succ_rows;     /* (n, words) successor bitmap per state */
    const int32_t *succ_span;      /* (n, 2) non-zero slice: first, count  */
    const uint64_t *start_all;     /* (words,) always-enabled starts       */
    const uint64_t *start_first;   /* (words,) starts of absolute cycle 0  */
    const uint64_t *reporting;     /* (words,) reporting states            */
    const uint64_t *start_match;   /* (256, words) start_all & match_words */
    const uint64_t *start_summary; /* (256, swords) its non-zero words     */
    const int64_t *start_active;   /* (256,) its popcount                  */
    const uint8_t *start_reports;  /* (256,) it meets `reporting`          */
    int64_t words;                 /* words per bitmap row                 */
    int64_t start_enabled;         /* popcount(start_all)                  */
    int64_t nrep_total;            /* popcount(reporting): worst burst     */
} cama_tables;

/* live = one bit per non-zero word of bitmap */
static void cama_summarize(
    const uint64_t *bitmap, int64_t words, uint64_t *live)
{
    memset(live, 0, (size_t)((words + 63) >> 6) * sizeof(uint64_t));
    for (int64_t w = 0; w < words; w++) {
        if (bitmap[w]) {
            live[w >> 6] |= (uint64_t)1 << (w & 63);
        }
    }
}

/* The step loop behind cama_run_chunk (documented there).  `words` is
 * a parameter so that the one-word call site below compiles to a loop
 * in which every bitmap and summary is a single register-sized word:
 * rulesets of <= 64 states pay nothing for the span and summary
 * bookkeeping that wide ones need. */
static CAMA_ALWAYS_INLINE int64_t cama_step(
    const cama_tables *tables,
    const int64_t words,
    const uint8_t *data,
    int64_t length,
    int64_t start_offset,
    int64_t base_cycle,
    uint64_t *CAMA_RESTRICT active,
    uint64_t *CAMA_RESTRICT scratch,
    int64_t budget,
    int64_t *CAMA_RESTRICT rep_cycles,
    int64_t *CAMA_RESTRICT rep_states,
    int64_t rep_capacity,
    int64_t *counters)
{
    const int64_t swords = (words + 63) >> 6;
    const uint64_t *match_words = tables->match_words;
    const uint64_t *succ_rows = tables->succ_rows;
    const int32_t *succ_span = tables->succ_span;
    const uint64_t *start_all = tables->start_all;
    const uint64_t *start_first = tables->start_first;
    const uint64_t *reporting = tables->reporting;
    const uint64_t *start_match = tables->start_match;
    const uint64_t *start_summary = tables->start_summary;
    const int64_t *start_active = tables->start_active;
    const uint8_t *start_reports = tables->start_reports;
    const int64_t start_enabled = tables->start_enabled;
    const int64_t nrep_total = tables->nrep_total;
    /* dyn and touched are all-zero between cycles: whoever reads a
     * word clears it */
    uint64_t *dyn = scratch;
    uint64_t *touched = scratch + words;
    uint64_t *live = touched + swords;
    memset(scratch, 0, (size_t)(words + swords) * sizeof(uint64_t));
    cama_summarize(active, words, live);

    int64_t enabled_sum = 0, active_sum = 0;
    int64_t fired = 0, recorded = 0, truncated = 0;
    int64_t off;
    for (off = start_offset; off < length; off++) {
        int64_t budget_left = budget - recorded;
        int64_t worst = nrep_total < budget_left ? nrep_total : budget_left;
        if (rep_capacity - recorded < worst) {
            break; /* pause: caller drains the report buffer */
        }

        /* dyn = OR(succ_rows[s] for s in active), span by span */
        for (int64_t sw = 0; sw < swords; sw++) {
            uint64_t live_bits = live[sw];
            while (live_bits) {
                int64_t w = sw * 64 + CAMA_CTZ64(live_bits);
                uint64_t bits = active[w];
                while (bits) {
                    int64_t state = w * 64 + CAMA_CTZ64(bits);
                    const uint64_t *row = succ_rows + state * words;
                    if (words == 1) {
                        dyn[0] |= row[0]; /* the row is its own span */
                    } else {
                        int64_t t = succ_span[2 * state];
                        int64_t end = t + succ_span[2 * state + 1];
                        for (; t < end; t++) {
                            dyn[t] |= row[t];
                            touched[t >> 6] |= (uint64_t)1 << (t & 63);
                        }
                    }
                    bits &= bits - 1;
                }
                live_bits &= live_bits - 1;
            }
        }

        /* active = (start | dyn) & match_words[symbol]; accumulate stats */
        const int64_t symbol = data[off];
        const uint64_t *match = match_words + symbol * words;
        int64_t enabled_count, active_count;
        uint64_t any_reporting;
        if (base_cycle + off == 0) {
            /* start_first has no per-symbol table: full width, once */
            enabled_count = active_count = 0;
            any_reporting = 0;
            for (int64_t w = 0; w < words; w++) {
                uint64_t enabled = dyn[w] | start_first[w];
                uint64_t next = enabled & match[w];
                enabled_count += CAMA_POPCOUNT64(enabled);
                active_count += CAMA_POPCOUNT64(next);
                any_reporting |= next & reporting[w];
                active[w] = next;
                dyn[w] = 0;
            }
            memset(touched, 0, (size_t)swords * sizeof(uint64_t));
            cama_summarize(active, words, live);
        } else {
            memcpy(active, start_match + symbol * words,
                   (size_t)words * sizeof(uint64_t));
            memcpy(live, start_summary + symbol * swords,
                   (size_t)swords * sizeof(uint64_t));
            enabled_count = start_enabled;
            active_count = start_active[symbol];
            any_reporting = start_reports[symbol];
            for (int64_t sw = 0; sw < swords; sw++) {
                /* one word: always visit it, cheaper than asking */
                uint64_t touched_bits = words == 1 ? 1 : touched[sw];
                touched[sw] = 0;
                while (touched_bits) {
                    int64_t w = sw * 64 + CAMA_CTZ64(touched_bits);
                    /* starts are already counted and matched */
                    uint64_t extra = dyn[w] & ~start_all[w];
                    uint64_t hit = extra & match[w];
                    dyn[w] = 0;
                    enabled_count += CAMA_POPCOUNT64(extra);
                    if (words == 1 || hit) {
                        active_count += CAMA_POPCOUNT64(hit);
                        any_reporting |= hit & reporting[w];
                        active[w] |= hit;
                        live[sw] |= (uint64_t)(hit != 0) << (w & 63);
                    }
                    touched_bits &= touched_bits - 1;
                }
            }
        }
        enabled_sum += enabled_count;
        active_sum += active_count;

        /* report extraction: firing bits in ascending state order */
        if (any_reporting) {
            int64_t cycle = base_cycle + off;
            for (int64_t w = 0; w < words; w++) {
                uint64_t bits = active[w] & reporting[w];
                while (bits) {
                    fired++;
                    if (recorded < budget) {
                        rep_cycles[recorded] = cycle;
                        rep_states[recorded] = w * 64 + CAMA_CTZ64(bits);
                        recorded++;
                    } else {
                        truncated = 1;
                    }
                    bits &= bits - 1;
                }
            }
        }
    }
    counters[CAMA_CTR_ENABLED_SUM] = enabled_sum;
    counters[CAMA_CTR_ACTIVE_SUM] = active_sum;
    counters[CAMA_CTR_FIRED] = fired;
    counters[CAMA_CTR_RECORDED] = recorded;
    counters[CAMA_CTR_TRUNCATED] = truncated;
    return off;
}

/* Step `active` through data[start_offset..length); returns the next
 * unconsumed offset (== length when the chunk completed, less when the
 * loop paused to let the caller drain the report buffer).
 *
 *   tables       the kernel's read-only tables
 *   data         input symbols, `length` of them
 *   base_cycle   absolute cycle of data[0] (start_first applies only
 *                at absolute cycle 0); report cycles are absolute
 *   active       (words,) in/out current active bitmap
 *   scratch      (words + 2 * swords,) caller-provided workspace: the
 *                successor OR, then the `touched` and `live` summaries
 *   budget       max reports still recordable (beyond it: counted,
 *                truncated flag set, nothing written)
 *   rep_cycles / rep_states  (rep_capacity,) report output buffer
 *   counters     (CAMA_CTR_COUNT,) out: this call's statistics
 */
int64_t cama_run_chunk(
    const cama_tables *tables,
    const uint8_t *data,
    int64_t length,
    int64_t start_offset,
    int64_t base_cycle,
    uint64_t *active,
    uint64_t *scratch,
    int64_t budget,
    int64_t *rep_cycles,
    int64_t *rep_states,
    int64_t rep_capacity,
    int64_t *counters)
{
    if (tables->words == 1) {
        return cama_step(tables, 1, data, length, start_offset, base_cycle,
                         active, scratch, budget, rep_cycles, rep_states,
                         rep_capacity, counters);
    }
    return cama_step(tables, tables->words, data, length, start_offset,
                     base_cycle, active, scratch, budget, rep_cycles,
                     rep_states, rep_capacity, counters);
}

#ifdef CAMA_BUILD_PYEXT
/* Minimal module shell so setuptools can build/install this file as
 * `repro.sim.backends._cama_native`.  Nothing imports it for its
 * Python surface — the loader resolves the shared object's path and
 * binds cama_run_chunk through ctypes. */
#include <Python.h>

static struct PyModuleDef cama_native_module = {
    PyModuleDef_HEAD_INIT,
    "_cama_native",
    "Carrier for the native CAMA step loop; symbols are bound via "
    "ctypes from the shared object, not through this module.",
    -1,
    NULL,
};

PyMODINIT_FUNC PyInit__cama_native(void) {
    return PyModule_Create(&cama_native_module);
}
#endif
