"""Calibrated virtual-instruction costs for engine code paths.

Each constant is the number of x86-ish instructions the corresponding
compiled-C code path would execute.  The deform/fill constants are calibrated
so that on the TPC-H ``orders`` relation (9 attributes, one trailing varlena,
no nulls) the generic ``slot_deform_tuple`` loop costs ~340 instructions per
tuple and the specialized GCL bee routine ~146, matching the paper's
Section II case study.  The pipeline constants are calibrated so that
``select o_comment from orders`` shows a ~8.5% whole-query instruction
reduction from GCL alone, matching the paper's callgrind totals
(3.447B -> 3.153B instructions).

Tests in ``tests/test_cost_calibration.py`` pin these calibration points.
"""

# --------------------------------------------------------------------------
# Generic slot_deform_tuple (Listing 1 in the paper).
# Cost per tuple = DEFORM_PROLOGUE + sum over attributes of
#   DEFORM_LOOP + (DEFORM_NULL_CHECK if relation has nullable attrs)
#   + path cost + DEFORM_FETCH.
# --------------------------------------------------------------------------
DEFORM_PROLOGUE = 30          # function entry, slot bookkeeping, isnull init
DEFORM_LOOP = 10               # loop counter increment, bound check, att load
DEFORM_NULL_CHECK = 6         # hasnulls && att_isnull(attnum, bp)
DEFORM_NULL_TAKEN = 8         # null short-path: store Datum 0, set slow
DEFORM_CACHED_OFFSET = 13     # attcacheoff >= 0 fast path
DEFORM_VARLENA = 24           # attlen == -1: align_pointer, VARSIZE, slow set
DEFORM_FIXED_ALIGN = 16       # post-varlena fixed attr: att_align_nominal
DEFORM_FETCH = 11              # fetchatt + att_addlength_pointer
DEFORM_BEE_LOOKUP = 15        # generic engine fetching a bee-resident value

# --------------------------------------------------------------------------
# Specialized GCL (GetColumnsToLongs) bee routine, per tuple.
# Cost = GCL_PROLOGUE + GCL_ISNULL_ZERO per 8 attributes + per-attribute
# emission costs (counted by the bee maker while generating code).
# --------------------------------------------------------------------------
GCL_PROLOGUE = 18             # call, argument setup, early-exit checks
GCL_ISNULL_ZERO = 2           # one long-store zeroes 8 isnull bytes
GCL_FIXED = 12                # unrolled `values[i] = *(T*)(data + K)`
GCL_VARLENA = 24              # alignment test + VARSIZE + pointer store
GCL_TUPLE_BEE = 4             # `values[i] = <data-section constant>`
GCL_NULLABLE = 6              # per nullable attribute: bitmap test retained

# --------------------------------------------------------------------------
# Generic heap_fill_tuple (tuple construction on insert/COPY).
# --------------------------------------------------------------------------
FILL_PROLOGUE = 30            # header setup, bitmap allocation
FILL_LOOP = 8                 # per-attribute loop overhead
FILL_NULL_CHECK = 6           # isnull[] test per attribute
FILL_FIXED = 22               # align, switch on attlen, store by width
FILL_VARLENA = 34             # SET_VARSIZE, memcpy of payload, align
FILL_FETCH = 7                # data pointer advance / bookkeeping

# Specialized SCL (SetColumnsFromLongs) bee routine.
SCL_PROLOGUE = 20
SCL_FIXED = 10                # unrolled store at constant offset
SCL_VARLENA = 26              # length store + memcpy
SCL_TUPLE_BEE = 5             # value lives in data section: beeID compare path
SCL_NULLABLE = 6

# --------------------------------------------------------------------------
# Tuple-bee creation (during insert / bulk load).
# --------------------------------------------------------------------------
TUPLE_BEE_MEMCMP = 3          # per existing data section compared
TUPLE_BEE_CLONE = 160         # slab slot carve-out + value substitution

# --------------------------------------------------------------------------
# Generic expression interpretation (ExecQual / FuncExprState dispatch).
# Cost per evaluated node = EXPR_NODE_DISPATCH + node-specific work;
# the specialized EVP routine charges EVP_* instead.
# --------------------------------------------------------------------------
EXPR_NODE_DISPATCH = 14       # recursive ExecEvalExpr indirection per node
EXPR_CONST = 4
EXPR_COLUMN = 8               # slot_getattr on an already-deformed slot
EXPR_COMPARISON = 18          # fmgr call: FunctionCall2 + comparator body
EXPR_ARITH = 12
EXPR_BOOL_PER_ARG = 7         # AND/OR step with isnull tracking
EXPR_LIKE_PER_CHAR = 3        # pattern scan
EXPR_LIKE_BASE = 30
EXPR_CASE_PER_ARM = 10
EXPR_FUNC = 22                # generic catalog-dispatched function call
EXPR_IN_PER_ITEM = 9

EVP_PROLOGUE = 10             # specialized predicate: one direct call
EVP_NODE = 5                  # constants folded, comparators inlined

# --------------------------------------------------------------------------
# Join machinery.
# --------------------------------------------------------------------------
JOIN_GENERIC_DISPATCH = 26    # JoinState interpretation per tuple pair:
                              # join-type branch, qual setup, fmgr compare
JOIN_HASH_COMPUTE = 110        # hash of a join key
JOIN_HASH_PROBE = 170          # bucket lookup + chain step
JOIN_EMIT = 80                # form joined tuple (projection handled apart)
EVJ_DISPATCH = 9              # specialized join: type branch folded away
EVJ_COMPARE = 6               # inlined key comparison

# --------------------------------------------------------------------------
# Other executor node costs (charged identically in both systems; they
# dilute the deform/predicate share of total work exactly as PostgreSQL's
# surrounding executor does).
# --------------------------------------------------------------------------
SEQSCAN_NEXT = 700            # heap_getnext: page walk, visibility check
INDEXSCAN_NEXT = 640          # B-tree descent step amortized + heap fetch
SLOT_STORE = 45               # ExecStoreTuple
PROJECT_PER_COLUMN = 24       # ExecProject target-list entry
AGG_TRANSITION = 110           # advance_transition_function per agg per row
AGG_HASH_LOOKUP = 200          # hash aggregation group lookup
SORT_COMPARE = 45             # qsort comparator via fmgr
SORT_PER_ROW = 120             # tuplesort puttuple/gettuple
MATERIALIZE_ROW = 40
EMIT_ROW_BASE = 510          # printtup: DataRow assembly + client send path
EMIT_ROW_PER_COLUMN = 150     # per-column output function + copy
EXECUTOR_PER_ROW = 300        # ExecProcNode chain, CHECK_FOR_INTERRUPTS, etc.
NUMERIC_OP = 55               # NUMERIC add/mul via fmgr (q1-style arithmetic)
PAGE_ACCESS = 420             # ReadBuffer + pin/unpin + header checks
INSERT_PER_ROW = 2000          # heap_insert, buffer dirty, WAL record
COPY_PER_ROW = 1900            # COPY input parsing + heap_insert path

# --------------------------------------------------------------------------
# Time model.
# --------------------------------------------------------------------------
CPU_HZ = 2.8e9                # paper's Intel i7 860
IPC = 1.45                    # sustained instructions per cycle for this mix
SEQ_PAGE_READ_S = 8192 / (110 * 1024 * 1024)   # ~110 MB/s sequential HDD
RAND_PAGE_READ_S = 0.004      # ~4 ms random seek+read
PAGE_SIZE = 8192

# I-cache model used by the bee placement optimizer.
ICACHE_SIZE = 32 * 1024
ICACHE_LINE = 64
ICACHE_ASSOC = 4
ICACHE_MISS_PENALTY_CYCLES = 20

NODE_OVERHEAD = 110            # ExecProcNode indirection per node per row

# --------------------------------------------------------------------------
# Pipeline bees (fused batch-at-a-time compilation over the Volcano chain).
# One generated function per fusable pipeline runs the whole
# deform -> qual -> project/probe/transition loop over a page's tuples;
# the ExecProcNode ping-pong (NODE_OVERHEAD per node per row), the slot
# store between nodes, and the per-call routine prologues all fold away.
# --------------------------------------------------------------------------
PIPE_BATCH_OVERHEAD = 90      # per page batch: fused call + loop setup
PIPE_NEXT = 170               # per tuple: line-pointer advance + visibility
                              # check, amortized inside the fused loop
PIPE_EMIT_BASE = 25           # per emitted row: append into the batch vector
PIPE_EMIT_PER_COLUMN = 10     # per output column of an emitted row

# Index maintenance (key extraction + structure modification per entry).
IDX_GENERIC_BASE = 30         # generic key-extraction loop over key columns
IDX_GENERIC_PER_COL = 10
IDX_SPEC_BASE = 8             # specialized: unrolled tuple build
IDX_SPEC_PER_COL = 2
INDEX_MAINTAIN = 60           # b-tree/hash structure modification itself

# Column-store extension (paper Section VIII: micro-specialization is
# orthogonal to architectural specialization, e.g. column stores).
COL_DECODE_GENERIC = 6        # per value per column: width switch + fetch
COL_DECODE_SPEC = 2           # specialized: typed block copy
COL_CHUNK_OVERHEAD = 120      # per chunk per column: page/pin bookkeeping
COL_PAGE_ACCESS = 420         # column-page read (same as row PAGE_ACCESS)
COL_SCAN_PER_ROW = 25         # chunk-loop + row materialization (both paths)
VECTOR_OP_PER_VALUE = 3       # per expr node per value: generic primitive
                              # with intermediate result vectors
VECTOR_OP_DISPATCH = 150      # per chunk per primitive: MAL-style dispatch
FUSED_PER_VALUE = 1           # per expr node per value in a fused kernel
FUSED_DISPATCH = 60           # per chunk: single generated-kernel call

# --------------------------------------------------------------------------
# Vector bees (the third execution tier: fused pipelines compiled into
# columnar NumPy kernels over chunk-cached typed arrays).  Chunk decode is
# paid once per heap version (the cache amortizes it across statements);
# the kernel itself replaces the fused per-row Python loop with a handful
# of whole-column primitives, so its per-row constants sit well below
# PIPE_NEXT.  Calibrated against the spine's tpch_vector_warm the way
# the PIPE_* constants were against tpch_pipe_warm.
# --------------------------------------------------------------------------
VEC_DECODE_PER_VALUE = 5      # per value on a chunk miss: reference decode
                              # + column append (page-at-a-time transpose)
VEC_CHUNK_BUILD = 130         # per column per page on a miss: ndarray
                              # assembly + null-mask packing
VEC_CHUNK_HIT = 40            # per page on a warm chunk: cache probe +
                              # version/layout validation, amortized
VEC_KERNEL_DISPATCH = 200     # per kernel call: arg marshal + charge
VEC_KERNEL_PER_VALUE = 1      # per expr node per row lane inside a
                              # vectorized primitive (SIMD-friendly)
VEC_SELECT_PER_ROW = 2        # per input row: mask build + index compaction
VEC_EMIT_BASE = 14            # per selected row: batched row materialization
VEC_EMIT_PER_COLUMN = 6       # per output column of a materialized row
VEC_PROBE_PER_ROW = 300       # per selected row: key tuple + hash probe +
                              # join emission (a per-row Python transition)
VEC_GROUP_PER_ROW = 160       # per selected row: group bucket lookup/append

VACUUM_PER_TUPLE = 150        # move live tuple + line-pointer rewrite

# --------------------------------------------------------------------------
# Parallel tier (morsel-driven execution across worker processes).  The
# coordinator charges its own ledger with the *makespan*: the largest
# per-worker ledger delta for the statement, so db.measure() reports the
# modeled wall clock of the slowest worker plus the coordinator-side
# dispatch/merge work below.  Dispatch constants are kept small relative
# to PAGE_ACCESS so fan-out wins once a morsel covers a few pages.
# --------------------------------------------------------------------------
PAR_DISPATCH = 260            # per morsel: task encode + pipe send/recv
PAR_PREPARE = 900             # per statement per worker: spec ship +
                              # fingerprint probe (compile amortized away)
PAR_SNAPSHOT_PER_PAGE = 60    # per page when shipping a heap snapshot to
                              # a worker (read-only copy-on-write share)
PAR_MERGE_PER_ROW = 8         # per gathered row: coordinator-side concat
PAR_MERGE_PER_GROUP = 45      # per partial group merged into the global
                              # hash table (AggState.merge)
