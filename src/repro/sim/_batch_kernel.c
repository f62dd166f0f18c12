/* Work-stealing tick kernel (engine="flat", run_batch, streaming), the
 * centralized event loop (repro_centralized_run) and the streaming
 * runs' P^2 quantile sketches (repro_p2_update, at the end).
 *
 * The steal-k-first tick loop over a window of jobs in SoA tables built
 * by repro.sim.batch_engine or repro.sim.stream_engine -- phase A
 * completion cascades, phase B admission / burn / live-attempt branches,
 * the three fast-forwards, sub-tick execution when steals_per_tick > 1
 * -- with every victim policy (uniform, round-robin, max-deque), single-
 * entry or steal-half steals, and FIFO or weighted admission.
 * The reference engine (repro/sim/engine.py::_run_work_stealing) defines
 * the semantics, bit for bit -- same completions, same stats counters,
 * same RNG draw cadence -- and tests/sim/test_flat_kernel_equivalence.py,
 * tests/sim/test_batch_engine.py and tests/sim/test_stream_engine.py
 * enforce the identity.
 *
 * Resumable: the loop-top scalars live in a caller-owned int64 state
 * vector (layout: the S_* slots below, mirrored in repro.sim._cext),
 * loaded into locals on entry and stored on exit.  The loop returns to
 * its caller at a stop point and continues from the same state when
 * called again:
 *
 *   0  done: `completed` reached n_total;
 *   1  t reached max_ticks (the caller raises the engine's RuntimeError);
 *   2  the window ran out of arrivals while `more` says the stream has
 *      further jobs -- mid-release, so the caller appends a segment and
 *      calls again with next_at unchanged (<= t), re-entering the
 *      release block;
 *   3  a checkpoint is due: right after a full release, once
 *      `completed` >= ckpt_at.  next_at > t holds there, so the next
 *      call skips the release block and continues exactly where the
 *      loop stopped.
 *
 * A materialized run (run_batch) is one call over the whole instance
 * with no stop point: n_total = n, more = 0, ckpt_at = INT64_MAX.
 *
 * Table addressing: every array is indexed by window-local ids (node,
 * edge, job or worker).  Completed jobs are appended, in completion
 * order, to `log` (its length is the S_NLOG slot).  A traced run passes
 * a `tr` buffer of three int64 per window node: each node completion
 * appends one (worker, node, end tick) row (the S_NTRACE slot counts
 * them), in the order the reference engine records its trace.  A node
 * runs as one uninterrupted segment, so the row determines the segment:
 * it started works[node] ticks before the end of its end tick.  With
 * `tr` NULL (untraced runs, streams) nothing is written.  Uniform victim
 * draws come from the run's 4096-slot block, refilled by calling back
 * into Python (refill_fn) so the PCG64 stream is drawn by the *same*
 * numpy Generator calls as the reference engine's UniformVictim -- exact
 * post-state identity, not just equal victim sequences.  Round-robin and
 * max-deque victims draw nothing, like the reference's policies.
 *
 * The admission queue holds qlen jobs.  FIFO: the job range
 * [next_arr - qlen, next_arr), stored as S_Q_HEAD.  Weighted: a binary
 * heap of job ids (heavier first, then lower id), its size stored as
 * S_HEAP_N.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 4096
#define IDLE_AT (((int64_t)1) << 62)

/* State-vector slots (repro.sim._cext mirrors them). */
enum {
    S_T, S_NEXT_ARR, S_NEXT_AT, S_Q_HEAD, S_P, S_N_BUSY, S_COMPLETED,
    S_NF, S_NE_COUNT, S_HEAP_N,
    S_ATT, S_FAIL, S_IDLE, S_ADMWAIT, S_FF, S_MAXQ, /* stat counters */
    S_NLOG, S_NTRACE, N_STATE
};

/* Victim policies, in repro.sim.policies.VICTIM_POLICIES order. */
enum { V_UNIFORM, V_ROUND_ROBIN, V_MAX_DEQUE };

typedef void (*refill_fn)(void);

typedef struct {
    /* immutable tables */
    const int64_t *works;
    const int64_t *eo;
    const int64_t *et;
    const int64_t *chain;
    const int64_t *job_of;
    /* mutable run state */
    int64_t *preds;
    int64_t *unfin;
    double *completions;
    int64_t *cur;
    int64_t *fin;
    int64_t *dq_head;
    int64_t *dq_tail;
    int64_t *dq_next;
    int64_t *dq_prev;
    int64_t *rdy;
    int64_t *dq_len;  /* per-worker deque lengths */
    int64_t *log;     /* completion-order job log */
    int64_t nlog;
    int64_t *tr;      /* trace rows (worker, node, end tick), or NULL */
    int64_t ntr;
    double speed;
    int64_t m;
    /* run-wide scalars */
    int64_t n_busy;
    int64_t completed;
    int64_t nf;
    int64_t ne_count; /* |ne|: workers with a non-empty deque */
} St;

/* The non-default knobs (victim policies, steal-half, weighted
 * admission, a trace) are served by helpers kept out of line and cold
 * (COLD) and by branches marked UNLIKELY, so the tick loop keeps its
 * register allocation and layout for the paper's configuration: uniform
 * victims, single-entry steals and FIFO admission, untraced, pay one
 * predictable branch per knob and run as fast as without the knobs.
 * (A specialized copy of the loop for that configuration would drop the
 * branches too, but it makes the kernel take half as long again to
 * compile, and every fresh cache pays the compile on start-up.) */
#define COLD __attribute__((noinline, cold))
#define UNLIKELY(x) __builtin_expect(!!(x), 0)

/* deques[i].append((node, ready)) */
static void dq_push(St *s, int64_t i, int64_t node, int64_t ready)
{
    int64_t tail = s->dq_tail[i];
    s->rdy[node] = ready;
    s->dq_len[i]++;
    s->dq_next[node] = -1;
    s->dq_prev[node] = tail;
    if (tail < 0) {
        s->dq_head[i] = node;
        s->ne_count++;
    } else {
        s->dq_next[tail] = node;
    }
    s->dq_tail[i] = node;
}

/* deques[i].pop() -- LIFO, own-deque continuation */
static int64_t dq_pop_back(St *s, int64_t i)
{
    int64_t node = s->dq_tail[i];
    int64_t prev = s->dq_prev[node];
    s->dq_len[i]--;
    s->dq_tail[i] = prev;
    if (prev < 0) {
        s->dq_head[i] = -1;
        s->ne_count--;
    } else {
        s->dq_next[prev] = -1;
    }
    return node;
}

/* deques[victim].popleft() -- FIFO, steal */
static int64_t dq_pop_front(St *s, int64_t i)
{
    int64_t node = s->dq_head[i];
    int64_t next = s->dq_next[node];
    s->dq_len[i]--;
    s->dq_head[i] = next;
    if (next < 0) {
        s->dq_tail[i] = -1;
        s->ne_count--;
    } else {
        s->dq_prev[next] = -1;
    }
    return node;
}

/* _complete(i, end_tick): finish worker i's current node at the end of
 * end_tick.  Lowers nf when it assigns an earlier finish (phase A
 * recomputes nf wholesale afterwards, so reusing this in phase A is
 * exact). */
static void complete_node(St *s, int64_t i, int64_t end_tick)
{
    int64_t g = s->cur[i];
    int64_t j = s->job_of[g];
    int64_t u = s->unfin[j] - 1;
    int64_t cn, lo, hi, f;
    if (UNLIKELY(s->tr != NULL)) {
        int64_t *row = s->tr + 3 * s->ntr++;
        row[0] = i;
        row[1] = g;
        row[2] = end_tick;
    }
    s->unfin[j] = u;
    cn = s->chain[g];
    if (cn >= 0) {
        s->cur[i] = cn;
        f = end_tick + s->works[cn];
        s->fin[i] = f;
        if (f < s->nf)
            s->nf = f;
        return;
    }
    lo = s->eo[g];
    hi = s->eo[g + 1];
    if (u == 0) {
        s->completions[j] = (double)(end_tick + 1) / s->speed;
        s->completed++;
        s->log[s->nlog++] = j;
    }
    if (lo != hi) {
        if (hi - lo == 1) {
            int64_t s2 = s->et[lo];
            int64_t pc = s->preds[s2] - 1;
            s->preds[s2] = pc;
            if (pc == 0) {
                s->cur[i] = s2;
                f = end_tick + s->works[s2];
                s->fin[i] = f;
                if (f < s->nf)
                    s->nf = f;
                return;
            }
        } else {
            int64_t first = -1;
            int64_t x;
            for (x = lo; x < hi; x++) {
                int64_t s2 = s->et[x];
                int64_t pc = s->preds[s2] - 1;
                s->preds[s2] = pc;
                if (pc == 0) {
                    if (first < 0)
                        first = s2;
                    else
                        /* extras: enabled siblings, ready next tick */
                        dq_push(s, i, s2, end_tick + 1);
                }
            }
            if (first >= 0) {
                s->cur[i] = first;
                f = end_tick + s->works[first];
                s->fin[i] = f;
                if (f < s->nf)
                    s->nf = f;
                return;
            }
        }
    }
    if (s->dq_head[i] >= 0) {
        int64_t g2 = dq_pop_back(s, i);
        s->cur[i] = g2;
        f = end_tick + s->works[g2];
        s->fin[i] = f;
        if (f < s->nf)
            s->nf = f;
    } else {
        s->cur[i] = -1;
        s->fin[i] = IDLE_AT;
        s->n_busy--;
    }
}

/* Up to `allowed` round-robin or max-deque probes by thief i; returns
 * the first victim with a non-empty deque, or -1, and the probes made in
 * *tries.  No deque changes between the probes. */
static COLD int64_t probe_victims(
    int64_t victims, int64_t *rr_next, const int64_t *dq_len,
    const int64_t *dq_head, int64_t i, int64_t m, int64_t allowed,
    int64_t *tries)
{
    int64_t x, v = -1, best_len = -1;
    if (victims == V_MAX_DEQUE) {
        /* MaxDequeVictim.choose: the longest other deque, ties to the
         * lowest id.  Every probe picks the same victim. */
        for (x = 0; x < m; x++) {
            if (x != i && dq_len[x] > best_len) {
                v = x;
                best_len = dq_len[x];
            }
        }
        *tries = (best_len > 0) ? 1 : allowed;
        return (best_len > 0) ? v : -1;
    }
    for (x = 0; x < allowed; x++) {
        /* RoundRobinVictim.choose: each thief sweeps the others. */
        v = rr_next[i];
        if (v == i)
            v = (v + 1) % m;
        rr_next[i] = (v + 1) % m;
        if (dq_head[v] >= 0) {
            *tries = x + 1;
            return v;
        }
    }
    *tries = allowed;
    return -1;
}

/* Steal-half: after the popleft, move the rest of the victim's top half,
 * oldest first, onto thief i's (empty) deque; ready ticks are kept. */
static COLD void steal_rest_of_half(St *s, int64_t victim, int64_t i)
{
    int64_t extra = s->dq_len[victim] / 2;
    while (extra-- > 0) {
        /* popleft by hand (the victim keeps at least one entry), so
         * that dq_pop_front keeps its one call site and stays inline */
        int64_t g = s->dq_head[victim];
        int64_t next = s->dq_next[g];
        s->dq_head[victim] = next;
        s->dq_prev[next] = -1;
        s->dq_len[victim]--;
        dq_push(s, i, g, s->rdy[g]);
    }
}

/* Weighted admission order: heavier first, then lower id.  The reference
 * (WeightedAdmissionQueue) keys (-weight, arrival, release seq); the
 * kernel's arrivals are sorted, so release order is id order and arrival
 * order agrees with it, and (-weight, id) is the same total order. */
static int heap_before(const double *w, int64_t a, int64_t b)
{
    return w[a] > w[b] || (w[a] == w[b] && a < b);
}

/* Push jobs [j, j_end) onto a heap of len entries. */
static COLD void heap_push(int64_t *heap, int64_t len, const double *w,
                           int64_t j, int64_t j_end)
{
    for (; j < j_end; j++, len++) {
        int64_t x = len;
        while (x > 0) {
            int64_t up = (x - 1) / 2;
            if (!heap_before(w, j, heap[up]))
                break;
            heap[x] = heap[up];
            x = up;
        }
        heap[x] = j;
    }
}

/* Pop the first job of a heap of len > 0 entries. */
static COLD int64_t heap_pop(int64_t *heap, int64_t len, const double *w)
{
    int64_t top = heap[0];
    int64_t last = heap[--len];
    int64_t x = 0;
    for (;;) {
        int64_t c = 2 * x + 1;
        if (c >= len)
            break;
        if (c + 1 < len && heap_before(w, heap[c + 1], heap[c]))
            c++;
        if (!heap_before(w, heap[c], last))
            break;
        heap[x] = heap[c];
        x = c;
    }
    heap[x] = last;
    return top;
}

int64_t repro_batch_run_rep(
    const int64_t *works, const int64_t *eo, const int64_t *et,
    const int64_t *chain, const int64_t *job_of,
    const int64_t *jro,      /* job-indexed: jro[0..n] */
    const int64_t *roots,    /* ascending root-node list */
    const int64_t *arr_ticks,/* job-indexed: arr_ticks[0..n-1] */
    const double *weights,   /* job-indexed; weighted admission only */
    int64_t *preds, int64_t *unfin, double *completions,
    int64_t *cur, int64_t *fin, int64_t *fails, int64_t *idles,
    int64_t *dq_head, int64_t *dq_tail,
    int64_t *dq_next, int64_t *dq_prev, int64_t *rdy,
    int64_t *dq_len,         /* per-worker deque lengths */
    int64_t *rr_next,        /* round-robin: each thief's next victim */
    int64_t *heap,           /* weighted admission: the queue, n slots */
    int64_t *raw,            /* the 4096-draw victim block (uniform) */
    int64_t *log,            /* completion-order job log, n slots */
    int64_t *tr,             /* trace rows, 3 per window node, or NULL */
    int64_t n,               /* jobs in the window */
    int64_t n_total,         /* run until this many jobs completed */
    int64_t more,            /* nonzero: jobs beyond the window follow */
    int64_t m, int64_t k, int64_t sigma,
    int64_t max_ticks, int64_t ckpt_at, double speed,
    int64_t *state, refill_fn refill,
    int64_t victims,         /* V_* victim policy */
    int64_t steal_half,      /* nonzero: a steal takes the top half */
    int64_t weighted)        /* nonzero: weighted admission, else FIFO */
{
    St st;
    int64_t t = state[S_T];
    int64_t next_arr = state[S_NEXT_ARR];
    int64_t next_at = state[S_NEXT_AT];
    int64_t qlen = weighted ? state[S_HEAP_N] : next_arr - state[S_Q_HEAD];
    int64_t p = state[S_P];           /* next unconsumed draw in the block */
    int64_t st_att = state[S_ATT], st_fail = state[S_FAIL];
    int64_t st_idle = state[S_IDLE], st_admwait = state[S_ADMWAIT];
    int64_t st_ff = state[S_FF], st_maxq = state[S_MAXQ];
    int64_t rc = 0;
    int64_t i;

    st.works = works;
    st.eo = eo;
    st.et = et;
    st.chain = chain;
    st.job_of = job_of;
    st.preds = preds;
    st.unfin = unfin;
    st.completions = completions;
    st.cur = cur;
    st.fin = fin;
    st.dq_head = dq_head;
    st.dq_tail = dq_tail;
    st.dq_next = dq_next;
    st.dq_prev = dq_prev;
    st.rdy = rdy;
    st.dq_len = dq_len;
    st.log = log;
    st.nlog = state[S_NLOG];
    st.tr = tr;
    st.ntr = state[S_NTRACE];
    st.speed = speed;
    st.m = m;
    st.n_busy = state[S_N_BUSY];
    st.completed = state[S_COMPLETED];
    st.nf = state[S_NF];
    st.ne_count = state[S_NE_COUNT];

    while (st.completed < n_total) {
        /* ---- release arrivals due at or before the current tick ---- */
        if (next_at <= t) {
            int64_t a0 = next_arr;
            while (next_arr < n && arr_ticks[next_arr] <= t)
                next_arr++;
            if (UNLIKELY(weighted))
                heap_push(heap, qlen, weights, a0, next_arr);
            qlen += next_arr - a0;
            if (next_arr < n) {
                next_at = arr_ticks[next_arr];
            } else if (more) {
                rc = 2; /* pull a segment, then re-enter this block */
                goto stop;
            } else {
                next_at = IDLE_AT; /* no further arrivals, ever */
            }
            if (qlen > st_maxq)
                st_maxq = qlen;
            if (st.completed >= ckpt_at) {
                rc = 3;
                goto stop;
            }
        }

        if (t >= max_ticks) {
            rc = 1;
            goto stop;
        }

        /* ---- fast-forward: whole system empty ---- */
        if (st.n_busy == 0 && qlen == 0) {
            int64_t gap = next_at - t;
            for (i = 0; i < m; i++) {
                int64_t f = fails[i] + gap * sigma;
                fails[i] = (f < k) ? f : k;
            }
            st_idle += gap * m;
            st_ff += gap;
            t += gap;
            continue;
        }

        /* ---- fast-forward: every worker busy ---- */
        if (st.n_busy == m) {
            int64_t blind = st.nf - t;
            if (blind > 0) {
                st_ff += blind;
                t += blind;
                continue;
            }
            /* blind == 0: the completion tick; fall through. */
        } else if (st.ne_count == 0 && st.n_busy > 0 && qlen == 0) {
            /* ---- fast-forward: nothing stealable, nothing admissible */
            int64_t delta = st.nf - t + 1;
            int64_t blind;
            if (next_arr < n && next_at - t < delta)
                delta = next_at - t;
            blind = delta - 1;
            if (blind >= 1) {
                int64_t n_idle = m - st.n_busy;
                for (i = 0; i < m; i++) {
                    if (cur[i] < 0) {
                        int64_t f = fails[i] + blind * sigma;
                        fails[i] = (f < k) ? f : k;
                    }
                }
                st_att += blind * n_idle * sigma;
                st_fail += blind * n_idle * sigma;
                st_ff += blind;
                t += blind;
                continue;
            }
            /* delta == 1: fall through to the general tick. */
        }

        /* ---- general tick ------------------------------------------ */
        /* Snapshot workers idle at the start of the tick, BEFORE phase
         * A: workers idled by a completion cascade must not act until
         * the next tick (the reference's idle_at_start). */
        {
            int64_t n_snap = 0;
            int64_t s_i;

            for (i = 0; i < m; i++)
                if (cur[i] < 0)
                    idles[n_snap++] = i;

            /* Phase A: completion cascades, only on ticks where some
             * busy worker finishes.  complete_node may lower nf
             * mid-phase; the wholesale recompute below makes the final
             * nf exactly min(fin). */
            if (st.nf == t) {
                int64_t nfi = IDLE_AT;
                for (i = 0; i < m; i++)
                    if (fin[i] == t)
                        complete_node(&st, i, t);
                for (i = 0; i < m; i++)
                    if (fin[i] < nfi)
                        nfi = fin[i];
                st.nf = nfi;
            }

            /* Phase B: idle workers acquire work. */
            for (s_i = 0; s_i < n_snap; s_i++) {
                int64_t budget = sigma;
                i = idles[s_i];
                while (budget > 0) {
                    int64_t fi = fails[i];
                    if (fi >= k && qlen) {
                        /* Admit the head-of-line (or heaviest) job. */
                        int64_t jb = UNLIKELY(weighted)
                                         ? heap_pop(heap, qlen, weights)
                                         : next_arr - qlen;
                        int64_t ro = jro[jb];
                        int64_t rhi = jro[jb + 1];
                        int64_t r0 = roots[ro];
                        int64_t f;
                        qlen--;
                        cur[i] = r0;
                        fails[i] = 0;
                        st.n_busy++;
                        st_admwait += t - arr_ticks[jb];
                        if (rhi - ro > 1) {
                            int64_t x;
                            for (x = ro + 1; x < rhi; x++)
                                dq_push(&st, i, roots[x], t);
                        }
                        if (sigma > 1) {
                            /* Sub-tick admission: one unit this tick. */
                            if (works[r0] == 1) {
                                complete_node(&st, i, t);
                            } else {
                                f = t + works[r0] - 1;
                                fin[i] = f;
                                if (f < st.nf)
                                    st.nf = f;
                            }
                        } else {
                            f = t + works[r0];
                            fin[i] = f;
                            if (f < st.nf)
                                st.nf = f;
                        }
                        break; /* admission consumes the rest of the tick */
                    }
                    if (st.ne_count == 0) {
                        /* Nothing stealable: burn just enough to unlock
                         * admission when the queue is non-empty, else
                         * the whole budget -- no draws. */
                        int64_t burned, f2;
                        if (qlen && k - fi <= budget)
                            burned = k - fi;
                        else
                            burned = budget;
                        f2 = fi + burned;
                        fails[i] = (f2 < k) ? f2 : k;
                        st_att += burned;
                        st_fail += burned;
                        budget -= burned;
                        if (budget > 0)
                            continue; /* unlocked admission */
                        break;
                    }
                    /* Live steal attempts. */
                    {
                        int64_t allowed = budget;
                        int64_t victim = -1;
                        int64_t v, g2, g2rdy, f;
                        if (qlen) {
                            int64_t d = k - fi;
                            if (d < allowed)
                                allowed = d;
                        }
                        if (UNLIKELY(victims != V_UNIFORM)) {
                            int64_t tries, n_failed;
                            victim = probe_victims(victims, rr_next, dq_len,
                                                   dq_head, i, m, allowed,
                                                   &tries);
                            n_failed = (victim >= 0) ? tries - 1 : tries;
                            fails[i] += n_failed;
                            st_att += tries;
                            st_fail += n_failed;
                            budget -= tries;
                            if (victim < 0)
                                continue; /* budget spent, or admit */
                        } else {
                            /* Scan the draw block for the first hit. */
                            int64_t got = -1;
                            for (;;) {
                                int64_t stop, jdx, n_failed;
                                if (p == BLOCK) {
                                    /* Same lazy refill cadence as
                                     * UniformVictim: Python draws the
                                     * next 4096 values into the block. */
                                    refill();
                                    p = 0;
                                }
                                stop = p + allowed;
                                if (stop > BLOCK)
                                    stop = BLOCK;
                                got = -1;
                                for (jdx = p; jdx < stop; jdx++) {
                                    v = raw[jdx];
                                    if (v >= i)
                                        v++;
                                    if (dq_head[v] >= 0) {
                                        got = jdx;
                                        break;
                                    }
                                }
                                if (got >= 0) {
                                    n_failed = got - p;
                                    fails[i] += n_failed;
                                    st_att += n_failed + 1;
                                    st_fail += n_failed;
                                    budget -= n_failed + 1;
                                    p = got + 1;
                                    break;
                                }
                                n_failed = stop - p;
                                fails[i] += n_failed;
                                st_att += n_failed;
                                st_fail += n_failed;
                                budget -= n_failed;
                                allowed -= n_failed;
                                p = stop;
                                if (allowed == 0)
                                    break;
                            }
                            if (got < 0)
                                continue; /* budget spent, or admit */
                            v = raw[got];
                            victim = (v >= i) ? v + 1 : v;
                        }
                        g2 = dq_pop_front(&st, victim);
                        g2rdy = rdy[g2];
                        if (UNLIKELY(steal_half))
                            steal_rest_of_half(&st, victim, i);
                        cur[i] = g2;
                        fails[i] = 0;
                        st.n_busy++;
                        /* Same-tick execution only if the stolen node
                         * was ready at the start of this tick. */
                        if (sigma > 1 && g2rdy <= t) {
                            if (works[g2] == 1) {
                                complete_node(&st, i, t);
                            } else {
                                f = t + works[g2] - 1;
                                fin[i] = f;
                                if (f < st.nf)
                                    st.nf = f;
                            }
                        } else {
                            f = t + works[g2];
                            fin[i] = f;
                            if (f < st.nf)
                                st.nf = f;
                        }
                        break; /* the steal consumes the rest of the tick */
                    }
                }
            }
        }
        t += 1;
    }

stop:
    state[S_T] = t;
    state[S_NEXT_ARR] = next_arr;
    state[S_NEXT_AT] = next_at;
    if (weighted)
        state[S_HEAP_N] = qlen;
    else
        state[S_Q_HEAD] = next_arr - qlen;
    state[S_P] = p;
    state[S_N_BUSY] = st.n_busy;
    state[S_COMPLETED] = st.completed;
    state[S_NF] = st.nf;
    state[S_NE_COUNT] = st.ne_count;
    state[S_ATT] = st_att;
    state[S_FAIL] = st_fail;
    state[S_IDLE] = st_idle;
    state[S_ADMWAIT] = st_admwait;
    state[S_FF] = st_ff;
    state[S_MAXQ] = st_maxq;
    state[S_NLOG] = st.nlog;
    state[S_NTRACE] = st.ntr;
    return rc;
}

/* ------------------------------------------------------------------ */
/* Centralized static-priority event loop                              */
/* ------------------------------------------------------------------ */

/* repro_centralized_run: FIFO, BWF and the list-scheduling baselines.
 *
 * A C transcription of the event loop in repro/sim/events.py
 * (_run_centralized_reference) for static priorities: the caller
 * evaluates the priority key once per job and passes each job's rank;
 * active jobs are served in ascending rank.  Every float operation is
 * the reference loop's, in the same order -- dt = min(rem) / speed, the
 * arrival cap, the clamp to >= 0, t + dt, speed * dt,
 * busy += delta * len(assigned), rem -= delta and the EPS tests -- so
 * completions compare with ==.  Built with -ffp-contract=off: a fused
 * multiply-add would round differently.
 *
 * Each job's ready list is a doubly linked list over global node ids
 * kept in the reference's list order: roots ascending, a completed node
 * unlinked in place, enabled successors appended in CSR order.  When a
 * job has more ready nodes than free processors, it gets the first
 * `avail` of its ready nodes sorted by (rem >= work, id).
 *
 * Resumable only at event boundaries, for the trace buffer: with
 * tr_cap > 0 each event with dt > 0 appends one (slot, job, local node)
 * int64 row and one (start, end) double row per assigned node, and the
 * loop returns CR_TRACE_FULL before an event that might not fit.  The
 * caller drains the rows, resets C_NROWS and calls again.
 *
 * ws (int64) holds, back to back: preds[N], unfin[n], rd_next[N],
 * rd_prev[N], rd_head[n], rd_tail[n], rd_len[n], act[n], asg[m],
 * asg_job[m] and keys[the largest job's node count]; the first call
 * (C_STARTED == 0) initializes it.  act lists the active jobs in
 * ascending rank.
 */

#define EPS 1e-9

/* Centralized state slots (repro.sim._cext mirrors them). */
enum {
    C_STARTED, C_NEXT_ARR, C_N_ACTIVE, C_REMAINING, C_N_EVENTS, C_NROWS,
    N_CSTATE
};
enum { CF_T, CF_BUSY, N_CFSTATE };

/* Return codes. */
enum { CR_DONE, CR_TRACE_FULL, CR_STALLED };

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

int64_t repro_centralized_run(
    const int64_t *works, const int64_t *eo, const int64_t *et,
    const int64_t *jno,      /* job node offsets, n + 1 entries */
    const int64_t *indeg,    /* per-node in-degrees */
    const int64_t *roots,    /* global ascending root list */
    const int64_t *jro,      /* job-indexed root offsets, n + 1 entries */
    const double *arrivals,
    const int64_t *rank,     /* job -> service rank (distinct) */
    int64_t *ws, double *rem, double *completions,
    int64_t *tr_rows, double *tr_times, int64_t tr_cap,
    int64_t n, int64_t n_nodes, int64_t m,
    double speed, int64_t *state, double *fstate)
{
    int64_t *preds = ws;
    int64_t *unfin = preds + n_nodes;
    int64_t *rd_next = unfin + n;
    int64_t *rd_prev = rd_next + n_nodes;
    int64_t *rd_head = rd_prev + n_nodes;
    int64_t *rd_tail = rd_head + n;
    int64_t *rd_len = rd_tail + n;
    int64_t *act = rd_len + n;
    int64_t *asg = act + n;
    int64_t *asg_job = asg + m;
    int64_t *keys = asg_job + m;
    int64_t next_arr, n_active, remaining, n_events, nrows;
    double t, busy;
    int64_t rc = CR_DONE;
    int64_t j, g, x;

    if (!state[C_STARTED]) {
        for (g = 0; g < n_nodes; g++) {
            preds[g] = indeg[g];
            rem[g] = (double)works[g];
        }
        for (j = 0; j < n; j++) {
            int64_t prev = -1;
            unfin[j] = jno[j + 1] - jno[j];
            rd_head[j] = -1;
            rd_len[j] = jro[j + 1] - jro[j];
            for (x = jro[j]; x < jro[j + 1]; x++) {
                g = roots[x];
                rd_prev[g] = prev;
                if (prev < 0)
                    rd_head[j] = g;
                else
                    rd_next[prev] = g;
                prev = g;
            }
            if (prev >= 0)
                rd_next[prev] = -1;
            rd_tail[j] = prev;
        }
        state[C_STARTED] = 1;
        state[C_NEXT_ARR] = 0;
        state[C_N_ACTIVE] = 0;
        state[C_REMAINING] = n;
        state[C_N_EVENTS] = 0;
        state[C_NROWS] = 0;
        fstate[CF_T] = n > 0 ? arrivals[0] : 0.0;
        fstate[CF_BUSY] = 0.0;
    }
    next_arr = state[C_NEXT_ARR];
    n_active = state[C_N_ACTIVE];
    remaining = state[C_REMAINING];
    n_events = state[C_N_EVENTS];
    nrows = state[C_NROWS];
    t = fstate[CF_T];
    busy = fstate[CF_BUSY];

    while (remaining > 0) {
        int64_t n_asg = 0, avail = m, a, scanned, finished = 0;
        double dt, t_next, delta;

        if (tr_cap > 0 && nrows + m > tr_cap) {
            rc = CR_TRACE_FULL;
            goto stop;
        }

        /* ---- release arrivals due at (or EPS-before) t ---- */
        while (next_arr < n && arrivals[next_arr] <= t + EPS) {
            /* insort by rank: after every active job of lower rank */
            int64_t r = rank[next_arr], lo = 0, hi = n_active;
            while (lo < hi) {
                int64_t mid = lo + (hi - lo) / 2;
                if (rank[act[mid]] < r)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            memmove(act + lo + 1, act + lo, (size_t)(n_active - lo) * 8);
            act[lo] = next_arr;
            n_active++;
            next_arr++;
        }

        if (n_active == 0) {
            t = arrivals[next_arr]; /* system empty: jump */
            continue;
        }

        /* ---- assignment: serve jobs in rank order ---- */
        for (a = 0; a < n_active && avail > 0; a++) {
            int64_t len;
            j = act[a];
            len = rd_len[j];
            if (len > avail) {
                /* Partial progress first, then lowest id: flag in
                 * bit 62, global id below (ids order like local ids). */
                int64_t c = 0;
                for (g = rd_head[j]; g >= 0; g = rd_next[g])
                    keys[c++] = ((int64_t)(rem[g] >= (double)works[g]) << 62)
                                | g;
                qsort(keys, (size_t)c, sizeof(int64_t), cmp_i64);
                for (x = 0; x < avail; x++) {
                    asg[n_asg] = keys[x] & ((((int64_t)1) << 62) - 1);
                    asg_job[n_asg++] = j;
                }
                avail = 0;
            } else {
                for (g = rd_head[j]; g >= 0; g = rd_next[g]) {
                    asg[n_asg] = g;
                    asg_job[n_asg++] = j;
                }
                avail -= len;
            }
        }
        scanned = a;
        if (n_asg == 0) {
            rc = CR_STALLED; /* active jobs with nothing ready: a cycle */
            goto stop;
        }

        /* ---- next event time ---- */
        dt = rem[asg[0]];
        for (x = 1; x < n_asg; x++)
            if (rem[asg[x]] < dt)
                dt = rem[asg[x]];
        dt = dt / speed;
        if (next_arr < n) {
            double dt_arrival = arrivals[next_arr] - t;
            if (dt_arrival < dt)
                dt = dt_arrival;
        }
        if (dt < 0.0)
            dt = 0.0;

        /* ---- advance ---- */
        t_next = t + dt;
        delta = speed * dt;
        busy += delta * (double)n_asg;
        if (tr_cap > 0 && dt > 0.0) {
            for (x = 0; x < n_asg; x++) {
                int64_t *row = tr_rows + 3 * nrows;
                row[0] = x;
                row[1] = asg_job[x];
                row[2] = asg[x] - jno[asg_job[x]];
                tr_times[2 * nrows] = t;
                tr_times[2 * nrows + 1] = t_next;
                nrows++;
            }
        }
        for (x = 0; x < n_asg; x++)
            rem[asg[x]] -= delta;

        /* ---- node completions, in assignment order ---- */
        for (x = 0; x < n_asg; x++) {
            int64_t p, q, e;
            g = asg[x];
            if (!(rem[g] <= EPS && preds[g] == 0))
                continue;
            j = asg_job[x];
            rem[g] = 0.0;
            p = rd_prev[g];
            q = rd_next[g];
            if (p < 0)
                rd_head[j] = q;
            else
                rd_next[p] = q;
            if (q < 0)
                rd_tail[j] = p;
            else
                rd_prev[q] = p;
            rd_len[j]--;
            preds[g] = -1;
            unfin[j]--;
            for (e = eo[g]; e < eo[g + 1]; e++) {
                int64_t s2 = et[e];
                if (--preds[s2] == 0) {
                    int64_t tail = rd_tail[j];
                    rd_prev[s2] = tail;
                    rd_next[s2] = -1;
                    if (tail < 0)
                        rd_head[j] = s2;
                    else
                        rd_next[tail] = s2;
                    rd_tail[j] = s2;
                    rd_len[j]++;
                }
            }
            if (unfin[j] == 0) {
                completions[j] = t_next;
                finished++;
            }
        }

        if (finished) {
            /* Finished jobs were all served, so they sit in act[0,
             * scanned): compact that prefix, then close the gap. */
            int64_t w = 0;
            for (a = 0; a < scanned; a++)
                if (unfin[act[a]] > 0)
                    act[w++] = act[a];
            memmove(act + w, act + scanned,
                    (size_t)(n_active - scanned) * 8);
            n_active -= finished;
            remaining -= finished;
        }

        n_events++;
        t = t_next;
    }

stop:
    state[C_NEXT_ARR] = next_arr;
    state[C_N_ACTIVE] = n_active;
    state[C_REMAINING] = remaining;
    state[C_N_EVENTS] = n_events;
    state[C_NROWS] = nrows;
    fstate[CF_T] = t;
    fstate[CF_BUSY] = busy;
    return rc;
}


/* ------------------------------------------------------------------ */
/* P^2 quantile sketches, steady state                                 */
/* ------------------------------------------------------------------ */

/* repro_p2_update: feed xs[0..n), in order, to each of n_sketches P^2
 * sketches that are past their exact phase (more than five
 * observations).
 *
 * A line-for-line transcription of the steady-state half of
 * repro/metrics/online.py::P2Quantile.update, which stays the oracle:
 * the same float operations in the same order, `hl < cand < hr` as two
 * comparisons, built with -ffp-contract=off, so the markers compare
 * with == to the Python loop's (tests/properties/
 * test_online_properties.py).
 *
 * Each sketch owns P2_STRIDE doubles of `markers` (repro.sim._cext
 * mirrors the stride), updated in place: its five heights, five
 * positions, five desired positions, then the five desired-position
 * increments, which are only read.
 */

#define P2_STRIDE 20

void repro_p2_update(double *markers, int64_t n_sketches,
                     const double *xs, int64_t n)
{
    for (int64_t s = 0; s < n_sketches; s++) {
        double *m = markers + s * P2_STRIDE;
        double h[5], pos[5], desired[5];
        const double *inc = m + 15;
        memcpy(h, m, sizeof h);
        memcpy(pos, m + 5, sizeof pos);
        memcpy(desired, m + 10, sizeof desired);

        for (int64_t j = 0; j < n; j++) {
            double x = xs[j];
            int k;
            /* Locate the cell containing x (extending extremes as
             * needed). */
            if (x < h[0]) {
                h[0] = x;
                k = 0;
            } else if (x >= h[4]) {
                h[4] = x;
                k = 3;
            } else {
                k = 0;
                while (x >= h[k + 1])
                    k++;
            }
            if (k == 0) {
                pos[1] += 1.0;
                pos[2] += 1.0;
            } else if (k == 1) {
                pos[2] += 1.0;
            }
            if (k <= 2)
                pos[3] += 1.0;
            pos[4] += 1.0;
            desired[1] += inc[1];
            desired[2] += inc[2];
            desired[3] += inc[3];
            desired[4] += 1.0;

            /* Adjust the three interior markers toward their desired
             * spots (parabolic prediction, linear fallback when it
             * would leave the bracketing heights). */
            for (int i = 1; i <= 3; i++) {
                double ni = pos[i];
                double d = desired[i] - ni;
                if (d >= 1.0) {
                    double nr = pos[i + 1];
                    if (nr - ni > 1.0) {
                        double nl = pos[i - 1];
                        double hi = h[i];
                        double hr = h[i + 1];
                        double hl = h[i - 1];
                        double cand = hi + (
                            (ni - nl + 1.0) * (hr - hi) / (nr - ni)
                            + (nr - ni - 1.0) * (hi - hl) / (ni - nl)
                        ) / (nr - nl);
                        h[i] = (hl < cand && cand < hr)
                            ? cand
                            : hi + (hr - hi) / (nr - ni);
                        pos[i] = ni + 1.0;
                    }
                } else if (d <= -1.0) {
                    double nl = pos[i - 1];
                    if (nl - ni < -1.0) {
                        double nr = pos[i + 1];
                        double hi = h[i];
                        double hr = h[i + 1];
                        double hl = h[i - 1];
                        double cand = hi - (
                            (ni - nl - 1.0) * (hr - hi) / (nr - ni)
                            + (nr - ni + 1.0) * (hi - hl) / (ni - nl)
                        ) / (nr - nl);
                        h[i] = (hl < cand && cand < hr)
                            ? cand
                            : hi - (hl - hi) / (nl - ni);
                        pos[i] = ni - 1.0;
                    }
                }
            }
        }

        memcpy(m, h, sizeof h);
        memcpy(m + 5, pos, sizeof pos);
        memcpy(m + 10, desired, sizeof desired);
    }
}
