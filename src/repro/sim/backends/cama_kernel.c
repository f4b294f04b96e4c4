/* cama_kernel.c — the bit-parallel automata step loop, in C.
 *
 * This is the native half of `repro.sim.backends.native`: the cycle
 * semantics of the sparse reference kernel over packed uint64 rows
 * (per-symbol match masks, successor OR-reduce, report
 * extraction), with no per-cycle Python/numpy dispatch.  The Python
 * side owns all memory: every pointer passed in is a C-contiguous
 * buffer, and the code is pure compute — no allocation, no state of
 * its own, no Python API — so ctypes can call it with the GIL released
 * and calls on separate workspaces can step from the same tables
 * concurrently.
 *
 * One entry point, cama_step_rows, steps a *batch of rows*: row r is
 * one stream, its packed active bitmap at rows[r] (a session's own
 * state row, or a row of a batch matrix — the loop steps it in place,
 * so state never changes form between chunks) and its chunk a slice
 * of one input buffer.  Rows are independent streams run one after
 * another from the same tables; a single stream's chunk is the
 * one-row call.  This is the software form of CAMA's one search over
 * every stored state row.
 *
 * Work follows activity, not capacity.  A cycle is
 *
 *     enabled = start_all | OR(successors(s) for s in active)
 *     active' = enabled & match_words[symbol]
 *
 * and tables derived once per kernel, from the successor CSR and the
 * match table (native.py:_derive_tables), keep every step of it off
 * the full `words`-wide bitmap:
 *
 *   - succ_packed holds each state's successor words, from its lowest
 *     to its highest non-zero one, back to back, and succ_span[s] =
 *     (base, first, count) places state s's slice: it starts at
 *     succ_packed[base] and covers bitmap words first .. first +
 *     count - 1.  Successors stay inside a state's connected
 *     component, so with component-by-component numbering the slice
 *     is a word or two however wide the automaton is; no table is
 *     `words` wide per state.  At one word per row (<= 64 states)
 *     every state has its one slot, zero or not, so the one-word loop
 *     reads succ_packed[s] and no span.
 *   - start_match[symbol] = start_all & match_words[symbol], with its
 *     popcount (start_active) and an any-reporting flag
 *     (start_reports): the always-enabled starts that a symbol makes
 *     active, the same bits every time the symbol is seen.
 *   - start_succ: per symbol, a sparse list (CSR over symbols:
 *     start_succ_at, then word index and bits) of the non-start
 *     successor words of start_match[symbol]'s states — a word or two
 *     per symbol, where the row is `words` wide.
 *   - summary bitmaps, one bit per word (`ceil(words / 64)` uint64s):
 *     `live` marks the non-zero words of the row, `touched` the words
 *     the successor OR wrote.  Both passes iterate set bits of a
 *     summary, so idle words are never read.
 *
 * The starts are folded out of the row.  From a call's second cycle
 * on, a row holds only its non-start hits D (the previous cycle's
 * start hits are start_match[prev], known from the symbol), so a
 * cycle is
 *
 *     dyn = start_succ[prev] | OR(successors(s) for s in D)
 *     D'  = (dyn & ~start_all) & match_words[symbol]
 *
 * counting start_enabled + popcount(dyn & ~start_all) enabled and
 * start_active[symbol] + popcount(D') active states.  When D is empty
 * — only starts are active, the usual cycle on traffic that matches
 * little — dyn is just the list, each word once, so the cycle ANDs
 * the listed words with the match row and skips the OR pass and the
 * summaries.  A call's first cycle reads the whole row it was handed
 * (any active set, starts included) and writes D'; report extraction
 * ORs start_match[symbol] back in word by word, so reports stay in
 * ascending state order; and when the call returns or pauses the row
 * is materialised once (`|= start_match[prev]`), so between calls a
 * row is always the whole active set.
 *
 * One cycle is exempt: absolute cycle 0 enables `start_first`
 * (start_all plus the START_OF_DATA states) instead of start_all,
 * which no per-symbol table covers, so it runs full width — once per
 * stream.  start_first contains start_all, so its start hits are
 * start_match[symbol] too and the row keeps only the rest.  Report
 * extraction, the budget and the pause contract below are full width
 * too: they only run on cycles that report.
 *
 * Report-buffer contract (resumability, per row): the rows share one
 * bounded (cycle, state) scratch buffer, filled in row order.  Before
 * every cycle the loop checks that the row's worst-case report burst —
 * every reporting state firing at once (`nrep_total`), or what the
 * row's budget still allows if less — fits in what is left; if not it
 * stops, the row's `done` field naming the next unconsumed symbol, so
 * Python can drain the buffer and call again from that row.  A pause
 * can land mid-row or between rows.  A capacity >= nrep_total
 * guarantees that a call which starts with an empty buffer makes
 * progress.
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
 *     path deliberately needs no Python headers, and no -m/-march
 *     flag: the digest-keyed cache may be shared between hosts.
 *
 * Popcount is the CPU instruction all the same.  On x86 the loop is
 * compiled twice, once for the `popcnt` target and once portable (a
 * SWAR popcount, inline: without the target the builtin is a libgcc
 * call per word), and cama_step_rows picks one by what the CPU it
 * runs on supports, so one build runs on any x86-64.
 */

#include <stdint.h>
#include <string.h>

#if defined(__GNUC__) || defined(__clang__)
#define CAMA_ALWAYS_INLINE inline __attribute__((always_inline))
#define CAMA_RESTRICT __restrict__
#define CAMA_CTZ64(x) ((int64_t)__builtin_ctzll(x))
#if defined(__x86_64__) || defined(__i386__)
/* the popcnt instruction is optional on x86: compile the loop twice */
#define CAMA_POPCNT_DISPATCH 1
#endif
#else
#define CAMA_ALWAYS_INLINE inline
#define CAMA_RESTRICT
#endif

static CAMA_ALWAYS_INLINE int64_t cama_popcount_swar(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (int64_t)((x * 0x0101010101010101ull) >> 56);
}

#ifndef CAMA_CTZ64
/* popcount of the bits below the lowest set one */
#define CAMA_CTZ64(x) cama_popcount_swar(((x) & (0 - (x))) - 1)
#endif

/* `hw` is a constant in every instance of the loop: the instruction
 * where the instance is compiled for it, the SWAR form otherwise. */
static CAMA_ALWAYS_INLINE int64_t cama_popcount(uint64_t x, const int hw) {
#if defined(__GNUC__) || defined(__clang__)
    if (hw) {
        return (int64_t)__builtin_popcountll(x);
    }
#endif
    (void)hw;
    return cama_popcount_swar(x);
}

/* One row's records in work->row_in / work->row_out, mirrored by
 * native.py.  The caller writes the inputs and zeroes the outputs
 * before the first call of a step; resumed calls add to the outputs.
 * A row's chunk starts where the previous row's ends in `data`. */
enum {
    CAMA_IN_LENGTH = 0,      /* symbols in the row's chunk              */
    CAMA_IN_BASE = 1,        /* absolute cycle of its first symbol      */
    CAMA_IN_CAP = 2,         /* reports the row may record this step    */
    CAMA_IN_FIELDS = 3
};
enum {
    CAMA_OUT_DONE = 0,       /* symbols consumed so far                 */
    CAMA_OUT_ENABLED = 1,    /* sum of enabled-state counts             */
    CAMA_OUT_ACTIVE = 2,     /* sum of active-state counts              */
    CAMA_OUT_FIRED = 3,      /* reports fired (recorded or not)         */
    CAMA_OUT_RECORDED = 4,   /* reports written to the buffer           */
    CAMA_OUT_TRUNCATED = 5,  /* 1 if a firing report exceeded CAP       */
    CAMA_OUT_FIELDS = 6
};

/* Per-kernel read-only tables; mirrored field for field by the ctypes
 * structure in native.py (`k` below is start_succ_at[256]). */
typedef struct {
    const uint64_t *match_words;     /* (256, words) per-symbol match masks */
    const uint64_t *succ_packed;     /* every state's successor slice        */
    const int64_t *succ_span;        /* (n, 3) slice: base, first, count     */
    const uint64_t *start_all;       /* (words,) always-enabled starts       */
    const uint64_t *start_first;     /* (words,) starts of absolute cycle 0  */
    const uint64_t *reporting;       /* (words,) reporting states            */
    const uint64_t *start_match;     /* (256, words) start_all & match_words */
    const int64_t *start_active;     /* (256,) its popcount                  */
    const uint8_t *start_reports;    /* (256,) it meets `reporting`          */
    const int64_t *start_succ_at;    /* (257,) symbol -> first list entry    */
    const int32_t *start_succ_word;  /* (k,) entry -> word index, ascending  */
    const uint64_t *start_succ_bits; /* (k,) its non-start successor bits    */
    int64_t words;                   /* words per bitmap row                 */
    int64_t start_enabled;           /* popcount(start_all)                  */
    int64_t nrep_total;              /* popcount(reporting): worst burst     */
} cama_tables;

/* One caller's workspace (a thread's, in native.py); mirrored by its
 * ctypes structure (`swords` is ceil(words / 64)). */
typedef struct {
    uint64_t *const *rows;  /* (rows,) each row's packed active bitmap  */
    const int64_t *row_in;  /* (rows, CAMA_IN_FIELDS) row inputs        */
    int64_t *row_out;       /* (rows, CAMA_OUT_FIELDS) row outputs      */
    uint64_t *scratch;      /* (words + 2 * swords,) the successor OR,
                               then the `touched` and `live` summaries */
    int64_t *rep_cycles;    /* (rep_capacity,) report buffer: cycles   */
    int64_t *rep_states;    /* (rep_capacity,) and state ids           */
    int64_t rep_capacity;
} cama_work;

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

/* Step one row from out[DONE] towards in[LENGTH], appending its
 * reports to the buffer at `written`; returns the new fill level.
 * `words` and `hw` are parameters so that each instance below
 * compiles its own loop: in the one-word instance every bitmap and
 * summary is a single register-sized word, so rulesets of <= 64
 * states pay nothing for the span and summary bookkeeping that wide
 * ones need. */
static CAMA_ALWAYS_INLINE int64_t cama_step_row(
    const cama_tables *tables,
    const int64_t words,
    const int hw,
    const uint8_t *CAMA_RESTRICT symbols,
    uint64_t *CAMA_RESTRICT active,
    uint64_t *CAMA_RESTRICT scratch,
    const int64_t *in,
    int64_t *CAMA_RESTRICT out,
    int64_t *CAMA_RESTRICT rep_cycles,
    int64_t *CAMA_RESTRICT rep_states,
    const int64_t rep_capacity,
    int64_t written)
{
    const int64_t swords = (words + 63) >> 6;
    const uint64_t *match_words = tables->match_words;
    const uint64_t *succ_packed = tables->succ_packed;
    const int64_t *succ_span = tables->succ_span;
    const uint64_t *start_all = tables->start_all;
    const uint64_t *start_first = tables->start_first;
    const uint64_t *reporting = tables->reporting;
    const uint64_t *start_match = tables->start_match;
    const int64_t *start_active = tables->start_active;
    const uint8_t *start_reports = tables->start_reports;
    const int64_t *start_succ_at = tables->start_succ_at;
    const int32_t *start_succ_word = tables->start_succ_word;
    const uint64_t *start_succ_bits = tables->start_succ_bits;
    const int64_t start_enabled = tables->start_enabled;
    const int64_t nrep_total = tables->nrep_total;
    const int64_t length = in[CAMA_IN_LENGTH];
    const int64_t base_cycle = in[CAMA_IN_BASE];
    const int64_t budget = in[CAMA_IN_CAP];
    int64_t off = out[CAMA_OUT_DONE];
    if (off >= length) {
        return written;
    }
    /* dyn and touched are all-zero between cycles: whoever reads a
     * word clears it — as the successor pass does with the row's */
    uint64_t *dyn = scratch;
    uint64_t *touched = scratch + words;
    uint64_t *live = touched + swords;
    memset(dyn, 0, (size_t)(words + swords) * sizeof(uint64_t));
    if (words > 1) {
        cama_summarize(active, words, live);
    }

    /* the previous cycle's symbol, once this call has stepped a cycle:
     * from then on the row holds only non-start hits, and its start
     * hits are start_match[prev] */
    int64_t prev = -1;
    uint64_t held = 0; /* non-zero when the row holds a non-start hit */
    int64_t enabled_sum = 0, active_sum = 0, fired = 0, truncated = 0;
    int64_t recorded = out[CAMA_OUT_RECORDED];
    for (; off < length; off++) {
        int64_t budget_left = budget - recorded;
        int64_t worst = nrep_total < budget_left ? nrep_total : budget_left;
        if (rep_capacity - written < worst) {
            break; /* pause: caller drains the report buffer */
        }

        /* active' = (start | dyn) & match_words[symbol]: its start hits
         * are start_match[symbol], counted as constants; the row keeps
         * the rest */
        const int64_t symbol = symbols[off];
        const uint64_t *match = match_words + symbol * words;
        int64_t enabled_count = start_enabled;
        int64_t active_count = start_active[symbol];
        uint64_t any_reporting = start_reports[symbol];
        if (prev >= 0 && !held) {
            /* only folded starts are active, so dyn is their list,
             * each word once: match it word by word, no OR pass */
            for (int64_t k = start_succ_at[prev]; k < start_succ_at[prev + 1];
                 k++) {
                int64_t w = start_succ_word[k];
                uint64_t extra = start_succ_bits[k];
                uint64_t hit = extra & match[w];
                enabled_count += cama_popcount(extra, hw);
                if (hit) {
                    active_count += cama_popcount(hit, hw);
                    any_reporting |= hit & reporting[w];
                    active[w] = hit;
                    live[w >> 6] |= (uint64_t)1 << (w & 63);
                    held = 1;
                }
            }
        } else {
            /* dyn = the active states' successors: the folded starts'
             * from their list, the row's span by span (the row is
             * cleared as it is read) */
            if (prev >= 0) {
                for (int64_t k = start_succ_at[prev];
                     k < start_succ_at[prev + 1]; k++) {
                    int64_t t = start_succ_word[k];
                    dyn[t] |= start_succ_bits[k];
                    touched[t >> 6] |= (uint64_t)1 << (t & 63);
                }
            }
            for (int64_t sw = 0; sw < swords; sw++) {
                /* one word: its live bit is whether it is non-zero */
                uint64_t live_bits = words == 1 ? active[0] != 0 : live[sw];
                live[sw] = 0;
                while (live_bits) {
                    int64_t w = sw * 64 + CAMA_CTZ64(live_bits);
                    uint64_t bits = active[w];
                    active[w] = 0;
                    while (bits) {
                        int64_t state = w * 64 + CAMA_CTZ64(bits);
                        if (words == 1) {
                            /* every state has its one slot: base == state */
                            dyn[0] |= succ_packed[state];
                        } else {
                            const int64_t *span = succ_span + 3 * state;
                            const uint64_t *row = succ_packed + span[0];
                            int64_t first = span[1], count = span[2];
                            for (int64_t k = 0; k < count; k++) {
                                int64_t t = first + k;
                                dyn[t] |= row[k];
                                touched[t >> 6] |= (uint64_t)1 << (t & 63);
                            }
                        }
                        bits &= bits - 1;
                    }
                    live_bits &= live_bits - 1;
                }
            }
            held = 0;
            if (base_cycle + off == 0) {
                /* start_first has no per-symbol table: full width, once */
                enabled_count = active_count = 0;
                any_reporting = 0;
                for (int64_t w = 0; w < words; w++) {
                    uint64_t enabled = dyn[w] | start_first[w];
                    uint64_t next = enabled & match[w];
                    enabled_count += cama_popcount(enabled, hw);
                    active_count += cama_popcount(next, hw);
                    any_reporting |= next & reporting[w];
                    active[w] = next & ~start_all[w];
                    held |= active[w];
                    dyn[w] = 0;
                }
                memset(touched, 0, (size_t)swords * sizeof(uint64_t));
                if (words > 1) {
                    cama_summarize(active, words, live);
                }
            } else {
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
                        enabled_count += cama_popcount(extra, hw);
                        if (words == 1 || hit) {
                            active_count += cama_popcount(hit, hw);
                            any_reporting |= hit & reporting[w];
                            active[w] = hit;
                            held |= hit;
                            live[sw] |= (uint64_t)(hit != 0) << (w & 63);
                        }
                        touched_bits &= touched_bits - 1;
                    }
                }
            }
        }
        prev = symbol;
        enabled_sum += enabled_count;
        active_sum += active_count;

        /* report extraction: firing bits in ascending state order */
        if (any_reporting) {
            int64_t cycle = base_cycle + off;
            const uint64_t *starts = start_match + symbol * words;
            for (int64_t w = 0; w < words; w++) {
                uint64_t bits = (active[w] | starts[w]) & reporting[w];
                while (bits) {
                    fired++;
                    if (recorded < budget) {
                        rep_cycles[written] = cycle;
                        rep_states[written] = w * 64 + CAMA_CTZ64(bits);
                        written++;
                        recorded++;
                    } else {
                        truncated = 1;
                    }
                    bits &= bits - 1;
                }
            }
        }
    }
    if (prev >= 0) {
        /* the row leaves whole: its starts back in */
        const uint64_t *starts = start_match + prev * words;
        for (int64_t w = 0; w < words; w++) {
            active[w] |= starts[w];
        }
    }
    out[CAMA_OUT_DONE] = off;
    out[CAMA_OUT_ENABLED] += enabled_sum;
    out[CAMA_OUT_ACTIVE] += active_sum;
    out[CAMA_OUT_FIRED] += fired;
    out[CAMA_OUT_RECORDED] = recorded;
    out[CAMA_OUT_TRUNCATED] |= truncated;
    return written;
}

/* cama_step_rows (below) for one `words` and popcount, constants in
 * each instance: each instance holds its own copy of the step loop. */
static CAMA_ALWAYS_INLINE int64_t cama_step_rows_words(
    const cama_tables *tables,
    const int64_t words,
    const int hw,
    const cama_work *work,
    const uint8_t *data,
    int64_t num_rows,
    int64_t first_row)
{
    int64_t written = 0;
    for (int64_t r = 0; r < first_row; r++) {
        data += work->row_in[r * CAMA_IN_FIELDS + CAMA_IN_LENGTH];
    }
    for (int64_t r = first_row; r < num_rows; r++) {
        const int64_t *in = work->row_in + r * CAMA_IN_FIELDS;
        int64_t *out = work->row_out + r * CAMA_OUT_FIELDS;
        written = cama_step_row(
            tables, words, hw, data, work->rows[r], work->scratch, in, out,
            work->rep_cycles, work->rep_states, work->rep_capacity, written);
        if (out[CAMA_OUT_DONE] < in[CAMA_IN_LENGTH]) {
            break;
        }
        data += in[CAMA_IN_LENGTH];
    }
    return written;
}

/* The one-word and the wide instance, for one popcount. */
static CAMA_ALWAYS_INLINE int64_t cama_step_rows_hw(
    const cama_tables *tables,
    const int hw,
    const cama_work *work,
    const uint8_t *data,
    int64_t num_rows,
    int64_t first_row)
{
    if (tables->words == 1) {
        return cama_step_rows_words(
            tables, 1, hw, work, data, num_rows, first_row);
    }
    return cama_step_rows_words(
        tables, tables->words, hw, work, data, num_rows, first_row);
}

#ifdef CAMA_POPCNT_DISPATCH
__attribute__((target("popcnt"))) static int64_t cama_step_rows_popcnt(
    const cama_tables *tables,
    const cama_work *work,
    const uint8_t *data,
    int64_t num_rows,
    int64_t first_row)
{
    return cama_step_rows_hw(tables, 1, work, data, num_rows, first_row);
}
#endif

/* Step rows first_row .. num_rows - 1, in order, row r through the
 * next in[LENGTH] symbols of `data` (the rows' chunks are back to
 * back); returns how many (cycle, state) pairs this call wrote to the
 * report buffer, row by row in row order (out[RECORDED] grows by each
 * row's share).  The call stops early at the first row whose
 * out[DONE] is still short of in[LENGTH] — it paused for the caller
 * to drain the buffer (see the contract above); call again from that
 * row.
 *
 *   tables   the kernel's read-only tables
 *   work     row pointers, row records, scratch and report buffer
 *   data     every row's input symbols, back to back
 *
 * Report cycles are absolute (in[BASE] + offset in the chunk), and
 * start_first applies only at absolute cycle 0.
 */
int64_t cama_step_rows(
    const cama_tables *tables,
    const cama_work *work,
    const uint8_t *data,
    int64_t num_rows,
    int64_t first_row)
{
#ifdef CAMA_POPCNT_DISPATCH
    if (__builtin_cpu_supports("popcnt")) {
        return cama_step_rows_popcnt(
            tables, work, data, num_rows, first_row);
    }
    return cama_step_rows_hw(tables, 0, work, data, num_rows, first_row);
#else
    /* elsewhere the builtin is the instruction, or the best there is */
    return cama_step_rows_hw(tables, 1, work, data, num_rows, first_row);
#endif
}

#ifdef CAMA_BUILD_PYEXT
/* Minimal module shell so setuptools can build/install this file as
 * `repro.sim.backends._cama_native`.  Nothing imports it for its
 * Python surface — the loader resolves the shared object's path and
 * binds cama_step_rows through ctypes. */
#include <Python.h>

static struct PyModuleDef cama_native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_cama_native",
    .m_doc = "Carrier for the native CAMA step loop; symbols are bound "
             "via ctypes from the shared object, not through this module.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__cama_native(void) {
    return PyModule_Create(&cama_native_module);
}
#endif
