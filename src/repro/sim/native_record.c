/*
 * Native commit-log recorder for the WN ISA.
 *
 * A plain interpreter over the encoded program that repro.sim.native
 * builds from a decoded CPU: it executes instructions against the CPU's
 * own region buffers (shared, not copied) and appends the commit-log
 * rows that repro.sim.replay.record_run would append, in the same
 * layout. One call runs until the program halts, the stream reaches
 * ``stop`` positions, or the next instruction needs something only the
 * Python recorder models -- an unsupported encoding, a PC outside the
 * program, a BX that faults, or a memory access that does not land in
 * non-volatile plain RAM. In that last case the call returns *before*
 * touching any state for that position (no keyframe, no log row), so
 * the Python recorder resumes at exactly that instruction and produces
 * the verdict itself.
 *
 * Registers are int64: the Python handlers keep AND/ORR/EOR results
 * unmasked (the reference model's quirk), and every other operation
 * masks its inputs, so two's-complement int64 reproduces them exactly.
 *
 * There is no global state: everything lives in the caller's structs,
 * so concurrent calls from threads that released the GIL are safe.
 */

#include <stdint.h>
#include <string.h>

#define M32 0xFFFFFFFFull
#define SIGN32 0x80000000ull

/* Opcode classes; must match repro/sim/native.py. */
enum {
    OP_UNSUPPORTED = 0,
    OP_MOV, OP_MVN, OP_ADD, OP_ADC, OP_CMN, OP_SUB, OP_SBC, OP_CMP,
    OP_RSB, OP_NEG, OP_TST, OP_AND, OP_ORR, OP_EOR, OP_BIC,
    OP_LSL, OP_LSR, OP_ASR, OP_SXTB, OP_SXTH, OP_UXTB, OP_UXTH,
    OP_LOAD, OP_STORE,
    OP_B, OP_BL, OP_BX, OP_BCC,
    OP_MUL, OP_ASP, OP_ASV_ADD, OP_ASV_SUB,
    OP_SKM, OP_HALT, OP_NOP
};

/* Condition codes of OP_BCC (the aux field). */
enum {
    CC_EQ = 0, CC_NE, CC_LT, CC_GE, CC_GT, CC_LE,
    CC_LO, CC_HS, CC_HI, CC_LS, CC_MI, CC_PL
};

/* Fields of one encoded instruction (int64 words). A negative rm
 * selects the immediate operand. */
enum { F_OP, F_RD, F_RN, F_RM, F_IMM, F_TARGET, F_COST, F_AUX, N_FIELDS };

/* Words per keyframe row: pos, 16 registers, n z c v, pc. */
#define KF_WORDS 22

enum { WN_HALTED = 0, WN_STOPPED = 1, WN_HANDBACK = 2 };

typedef struct {
    uint8_t *data;
    int64_t base;
    int64_t size;
    int64_t safe; /* non-volatile, no device: the only memory replay models */
} wn_region;

typedef struct {
    int64_t regs[16];
    int64_t flags[4]; /* n, z, c, v */
    int64_t pc;
    int64_t halted;
    int64_t pos;   /* next stream position */
    int64_t total; /* cycles retired so far */
} wn_state;

typedef struct {
    int32_t *pcs;
    int64_t *cum;
    int8_t *kind;
    uint32_t *addr;
    int8_t *size;
    int64_t *store_pos;
    uint32_t *store_addr;
    int8_t *store_size;
    uint32_t *store_value;
    int64_t *skim_pos;
    int64_t *skim_target;
    int64_t *keyframes;
    /* Rows written by the last call. */
    int64_t n_pos;
    int64_t n_store;
    int64_t n_skim;
    int64_t n_keyframes;
} wn_log;

/* The buffer behind [addr, addr + size) if the first region holding it
 * (Memory._find order) is safe RAM, else NULL. */
static uint8_t *locate(const wn_region *regions, int64_t n_regions,
                       int64_t addr, int64_t size)
{
    for (int64_t i = 0; i < n_regions; i++) {
        const wn_region *r = &regions[i];
        if (r->base <= addr && addr + size <= r->base + r->size)
            return r->safe ? r->data + (addr - r->base) : NULL;
    }
    return NULL;
}

static uint64_t load_le(const uint8_t *p, int64_t size)
{
    if (size == 4)
        return (uint64_t)p[0] | ((uint64_t)p[1] << 8)
             | ((uint64_t)p[2] << 16) | ((uint64_t)p[3] << 24);
    if (size == 2)
        return (uint64_t)p[0] | ((uint64_t)p[1] << 8);
    return p[0];
}

static void store_le(uint8_t *p, int64_t size, uint64_t value)
{
    p[0] = (uint8_t)value;
    if (size >= 2)
        p[1] = (uint8_t)(value >> 8);
    if (size == 4) {
        p[2] = (uint8_t)(value >> 16);
        p[3] = (uint8_t)(value >> 24);
    }
}

static uint64_t lanes(uint64_t a, uint64_t b, int64_t width, int subtract)
{
    uint64_t mask = (1ull << width) - 1, result = 0;
    for (int64_t shift = 0; shift < 32; shift += width) {
        uint64_t x = (a >> shift) & mask, y = (b >> shift) & mask;
        uint64_t lane = subtract ? x - y : x + y;
        result |= (lane & mask) << shift;
    }
    return result;
}

static int condition(int64_t cc, int n, int z, int c, int v)
{
    switch (cc) {
    case CC_EQ: return z;
    case CC_NE: return !z;
    case CC_LT: return n != v;
    case CC_GE: return n == v;
    case CC_GT: return !z && n == v;
    case CC_LE: return z || n != v;
    case CC_LO: return !c;
    case CC_HS: return c;
    case CC_HI: return c && !z;
    case CC_LS: return !c || z;
    case CC_MI: return n;
    default:    return !n; /* CC_PL */
    }
}

int wn_record(const int64_t *code, int64_t n_code,
              const wn_region *regions, int64_t n_regions,
              int64_t kf_interval, int64_t stop,
              wn_state *st, wn_log *log)
{
    int64_t *r = st->regs;
    int n = st->flags[0] != 0, z = st->flags[1] != 0;
    int c = st->flags[2] != 0, v = st->flags[3] != 0;
    int64_t pc = st->pc, pos = st->pos, total = st->total;
    int64_t np = 0, ns = 0, nk = 0, nkf = 0;
    int64_t kf_next = (pos + kf_interval - 1) / kf_interval * kf_interval;
    int status = WN_HALTED;

    while (!st->halted) {
        if (pos >= stop) {
            status = WN_STOPPED;
            break;
        }
        if (pc < 0 || pc >= n_code) {
            status = WN_HANDBACK;
            break;
        }
        const int64_t *in = code + pc * N_FIELDS;
        const int64_t op = in[F_OP], rd = in[F_RD], rn = in[F_RN];
        const int64_t rm = in[F_RM], imm = in[F_IMM], aux = in[F_AUX];
        const int64_t src = rm >= 0 ? r[rm] : imm;

        /* Everything that may hand back is decided before any state or
         * log row for this position changes. */
        uint8_t *mem = NULL;
        int64_t addr = 0;
        if (op == OP_LOAD || op == OP_STORE) {
            addr = (int64_t)(((uint64_t)r[rn] + (uint64_t)src) & M32);
            mem = locate(regions, n_regions, addr, aux);
            if (mem == NULL) {
                status = WN_HANDBACK;
                break;
            }
        } else if (op == OP_BX) {
            if (r[rm] < 0 || r[rm] > n_code) {
                status = WN_HANDBACK;
                break;
            }
        } else if (op == OP_UNSUPPORTED) {
            status = WN_HANDBACK;
            break;
        }

        if (pos == kf_next) {
            int64_t *row = log->keyframes + nkf * KF_WORDS;
            row[0] = pos;
            memcpy(row + 1, r, 16 * sizeof(int64_t));
            row[17] = n;
            row[18] = z;
            row[19] = c;
            row[20] = v;
            row[21] = pc;
            nkf++;
            kf_next += kf_interval;
        }

        int64_t cost = in[F_COST], next = pc + 1;
        int8_t kind = 0;
        uint64_t a, b, res, sum;

        switch (op) {
        case OP_MOV:
            res = (uint64_t)src & M32;
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_MVN:
            res = ~(uint64_t)src & M32;
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_ADD:
        case OP_ADC:
        case OP_CMN:
            a = (uint64_t)r[rn] & M32;
            b = (uint64_t)src & M32;
            sum = a + b + (op == OP_ADC && c ? 1 : 0);
            res = sum & M32;
            c = sum > M32;
            v = ((a ^ res) & (b ^ res) & SIGN32) != 0;
            if (op != OP_CMN)
                r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_SUB:
        case OP_SBC:
        case OP_CMP:
        case OP_RSB:
            if (op == OP_RSB) {
                a = (uint64_t)src & M32;
                b = (uint64_t)r[rn] & M32;
            } else {
                a = (uint64_t)r[rn] & M32;
                b = (uint64_t)src & M32;
            }
            sum = a + (~b & M32) + (op == OP_SBC ? (uint64_t)c : 1);
            res = sum & M32;
            c = sum > M32;
            v = ((a ^ b) & (a ^ res) & SIGN32) != 0;
            if (op != OP_CMP)
                r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_NEG:
            b = (uint64_t)src & M32;
            sum = (~b & M32) + 1;
            res = sum & M32;
            c = sum > M32;
            v = (b & res & SIGN32) != 0;
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_TST:
            res = (uint64_t)(r[rn] & src) & M32;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_AND:
        case OP_ORR:
        case OP_EOR: {
            /* Unmasked register write, masked flags (reference quirk). */
            int64_t full = op == OP_AND ? (r[rn] & src)
                         : op == OP_ORR ? (r[rn] | src) : (r[rn] ^ src);
            r[rd] = full;
            res = (uint64_t)full & M32;
            n = res >= SIGN32;
            z = res == 0;
            break;
        }
        case OP_BIC:
            res = (uint64_t)(r[rn] & ~src) & M32;
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_LSL:
        case OP_LSR:
        case OP_ASR: {
            int64_t shift = aux;
            if (rm >= 0) {
                shift = r[rm] & 0xFF;
                if (shift > 32)
                    shift = 32;
            }
            a = (uint64_t)r[rn];
            if (op == OP_LSL) {
                res = (a << shift) & M32;
            } else if (op == OP_LSR) {
                res = (a & M32) >> shift;
            } else {
                int64_t s = (int64_t)(a & M32);
                if (s & (int64_t)SIGN32)
                    s -= (int64_t)0x100000000ll;
                res = (uint64_t)(s >> shift) & M32;
            }
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        }
        case OP_SXTB:
            res = (uint64_t)src & 0xFF;
            r[rd] = (int64_t)((res & 0x80) ? (res | 0xFFFFFF00ull) : res);
            break;
        case OP_SXTH:
            res = (uint64_t)src & 0xFFFF;
            r[rd] = (int64_t)((res & 0x8000) ? (res | 0xFFFF0000ull) : res);
            break;
        case OP_UXTB:
            r[rd] = src & 0xFF;
            break;
        case OP_UXTH:
            r[rd] = src & 0xFFFF;
            break;
        case OP_LOAD:
            r[rd] = (int64_t)load_le(mem, aux);
            kind = 1;
            break;
        case OP_STORE:
            res = (uint64_t)r[rd] & (aux == 4 ? M32 : aux == 2 ? 0xFFFF : 0xFF);
            store_le(mem, aux, res);
            log->store_pos[ns] = pos;
            log->store_addr[ns] = (uint32_t)addr;
            log->store_size[ns] = (int8_t)aux;
            log->store_value[ns] = (uint32_t)res;
            ns++;
            kind = 2;
            break;
        case OP_B:
            next = in[F_TARGET];
            break;
        case OP_BL:
            r[14] = pc + 1;
            next = in[F_TARGET];
            break;
        case OP_BX:
            next = r[rm];
            break;
        case OP_BCC:
            if (condition(aux, n, z, c, v))
                next = in[F_TARGET];
            else
                cost = 1;
            break;
        case OP_MUL:
            res = (((uint64_t)r[rd] & M32) * ((uint64_t)r[rm] & M32)) & M32;
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_ASP:
            /* imm holds the product shift, aux the subword mask. */
            res = ((uint64_t)r[rd] & M32) * ((uint64_t)r[rm] & (uint64_t)aux);
            res = imm >= 32 ? 0 : (res << imm) & M32;
            r[rd] = (int64_t)res;
            n = res >= SIGN32;
            z = res == 0;
            break;
        case OP_ASV_ADD:
        case OP_ASV_SUB:
            r[rd] = (int64_t)lanes((uint64_t)r[rd], (uint64_t)r[rm], aux,
                                   op == OP_ASV_SUB);
            break;
        case OP_SKM:
            log->skim_pos[nk] = pos;
            log->skim_target[nk] = in[F_TARGET];
            nk++;
            break;
        case OP_HALT:
            st->halted = 1;
            next = pc;
            break;
        default: /* OP_NOP */
            break;
        }

        total += cost;
        log->pcs[np] = (int32_t)pc;
        log->cum[np] = total;
        log->kind[np] = kind;
        log->addr[np] = kind ? (uint32_t)addr : 0;
        log->size[np] = kind ? (int8_t)aux : 0;
        np++;
        pos++;
        pc = next;
    }

    st->flags[0] = n;
    st->flags[1] = z;
    st->flags[2] = c;
    st->flags[3] = v;
    st->pc = pc;
    st->pos = pos;
    st->total = total;
    log->n_pos = np;
    log->n_store = ns;
    log->n_skim = nk;
    log->n_keyframes = nkf;
    return status;
}
