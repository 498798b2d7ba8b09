// Package tpcc implements the TPC-C New Order transaction over the
// transactional tables in internal/memdb, following the paper's setup
// (§5.1): the write-intensive New Order transaction simulating a
// customer buying 5-15 items from a local warehouse, with the table
// storage implemented both as B+-trees and as hash tables (the paper's
// "TPC-C (B+-tree)" and "TPC-C (hash)" variants, identical to the REWIND
// implementation it cites).
//
// Scale parameters are configurable and default to a laptop-scale subset
// (fewer items and customers than the full TPC-C spec); the transaction
// structure — reads, writes, and inserts per order — matches the spec,
// which is what the write-intensity results depend on.
package tpcc

import (
	"math/rand"

	"dudetm/internal/memdb"
)

// StorageKind selects the table implementation.
type StorageKind int

const (
	// BTreeStorage backs each table with a B+-tree.
	BTreeStorage StorageKind = iota
	// HashStorage backs each table with an open-addressing hash table.
	HashStorage
)

// Config sets the scale of the generated database.
type Config struct {
	// Warehouses (default 4).
	Warehouses int
	// DistrictsPerWarehouse (default 10, per spec).
	Districts int
	// CustomersPerDistrict (default 120; spec is 3000).
	Customers int
	// Items in the catalogue (default 1024; spec is 100000).
	Items int
	// MaxOrders bounds hash-table sizing for order/order-line inserts
	// (default 1<<16 orders per run).
	MaxOrders int
	// Storage selects B+-tree or hash tables.
	Storage StorageKind
}

func (c *Config) applyDefaults() {
	if c.Warehouses == 0 {
		c.Warehouses = 4
	}
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.Customers == 0 {
		c.Customers = 120
	}
	if c.Items == 0 {
		c.Items = 1024
	}
	if c.MaxOrders == 0 {
		c.MaxOrders = 1 << 16
	}
}

// Row field offsets (words * 8 bytes).
const (
	wTax = 0 // warehouse: tax in basis points
	wYTD = 8 // warehouse: year-to-date payments in cents

	dTax      = 0  // district: tax in basis points
	dNextOID  = 8  // district: next order id
	dYTD      = 16 // district: year-to-date payments in cents
	dDelivOID = 24 // district: next order id to deliver

	cDiscount   = 0  // customer: discount in basis points
	cBalance    = 8  // customer: balance in cents (offset-encoded, see balBias)
	cYTDPayment = 16 // customer: year-to-date payments in cents
	cPaymentCnt = 24 // customer: payment count
	cLastOID    = 32 // customer: most recent order id (for Order-Status)
	cLastD      = 40 // customer: district of the most recent order

	iPrice = 0 // item: price in cents

	sQuantity = 0 // stock: quantity on hand
	sYTD      = 8 // stock: year-to-date sold

	oCID     = 0  // order: customer id
	oOLCnt   = 8  // order: order-line count
	oEntryD  = 16 // order: entry timestamp (logical)
	oCarrier = 24 // order: carrier id (0 = undelivered)

	olItem   = 0  // order line: item id
	olSupply = 8  // order line: supplying warehouse
	olQty    = 16 // order line: quantity
	olAmount = 24 // order line: amount in cents
	olDelivD = 32 // order line: delivery timestamp (0 = undelivered)

	// Customer balances can go negative; they are stored biased.
	balBias = uint64(1) << 40

	warehouseRowBytes = 16
	districtRowBytes  = 32
	customerRowBytes  = 48
	orderRowBytes     = 32
	orderLineRowBytes = 40
)

// DB is a loaded TPC-C database inside a transactional pool.
type DB struct {
	Cfg  Config
	Heap memdb.Heap

	Warehouses memdb.Table
	Districts  memdb.Table
	Customers  memdb.Table
	Items      memdb.Table
	Stocks     memdb.Table
	Orders     memdb.Table
	OrderLines memdb.Table
	NewOrders  memdb.Table
}

// Key encodings (all offset by +1 so 0 stays the "empty" sentinel).

// WarehouseKey returns the key of warehouse w.
func WarehouseKey(w int) uint64 { return uint64(w) + 1 }

// DistrictKey returns the key of district d of warehouse w.
func (db *DB) DistrictKey(w, d int) uint64 {
	return uint64(w*db.Cfg.Districts+d) + 1
}

// CustomerKey returns the key of customer c in district (w, d).
func (db *DB) CustomerKey(w, d, c int) uint64 {
	return uint64((w*db.Cfg.Districts+d)*db.Cfg.Customers+c) + 1
}

// ItemKey returns the key of item i.
func ItemKey(i int) uint64 { return uint64(i) + 1 }

// StockKey returns the key of the stock row for item i at warehouse w.
func (db *DB) StockKey(w, i int) uint64 {
	return uint64(w*db.Cfg.Items+i) + 1
}

// OrderKey returns the key of order oid in district (w, d).
func (db *DB) OrderKey(w, d int, oid uint64) uint64 {
	return uint64(w*db.Cfg.Districts+d)<<40 | oid + 1
}

// OrderLineKey returns the key of line number n of an order.
func (db *DB) OrderLineKey(w, d int, oid uint64, n int) uint64 {
	return (uint64(w*db.Cfg.Districts+d)<<40|oid)<<4 | uint64(n) + 1
}

// Setup formats the heap, creates the tables, and loads the initial
// database. It must run inside transactions on an empty pool; txRun
// executes one transactional step (Setup issues several to keep
// individual transactions and their redo logs bounded).
func Setup(cfg Config, heap memdb.Heap, txRun func(fn func(memdb.Ctx) error) error) (*DB, error) {
	cfg.applyDefaults()
	db := &DB{Cfg: cfg, Heap: heap}

	if err := txRun(func(ctx memdb.Ctx) error {
		heap.Format(ctx)
		return nil
	}); err != nil {
		return nil, err
	}

	specs := []struct {
		t      *memdb.Table
		expect int
	}{
		{&db.Warehouses, cfg.Warehouses},
		{&db.Districts, cfg.Warehouses * cfg.Districts},
		{&db.Customers, cfg.Warehouses * cfg.Districts * cfg.Customers},
		{&db.Items, cfg.Items},
		{&db.Stocks, cfg.Warehouses * cfg.Items},
		{&db.Orders, cfg.MaxOrders},
		{&db.OrderLines, cfg.MaxOrders * 16},
		{&db.NewOrders, cfg.MaxOrders},
	}
	for _, sp := range specs {
		var tbl memdb.Table
		if err := txRun(func(ctx memdb.Ctx) error {
			var err error
			tbl, err = makeTable(ctx, heap, cfg.Storage, sp.expect)
			return err
		}); err != nil {
			return nil, err
		}
		*sp.t = tbl
	}

	// Load rows in batches to bound transaction size.
	if err := db.load(txRun); err != nil {
		return nil, err
	}
	return db, nil
}

// makeTable allocates a table of the configured kind sized for expect
// entries.
func makeTable(ctx memdb.Ctx, heap memdb.Heap, kind StorageKind, expect int) (memdb.Table, error) {
	if kind == HashStorage {
		buckets := uint64(4)
		for buckets < uint64(expect)*2 {
			buckets <<= 1
		}
		base, err := heap.Alloc(ctx, buckets*16)
		if err != nil {
			return nil, err
		}
		return memdb.NewHashTable(base, buckets), nil
	}
	rootPtr, err := heap.Alloc(ctx, 8)
	if err != nil {
		return nil, err
	}
	t := memdb.BPlusTree{RootPtr: rootPtr, Heap: heap}
	if err := t.Format(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

func (db *DB) load(txRun func(fn func(memdb.Ctx) error) error) error {
	cfg := db.Cfg
	// Warehouses and districts.
	if err := txRun(func(ctx memdb.Ctx) error {
		for w := 0; w < cfg.Warehouses; w++ {
			row, err := db.Heap.Alloc(ctx, warehouseRowBytes)
			if err != nil {
				return err
			}
			ctx.Store(row+wTax, uint64(w%20)*10) // 0-1.9% tax
			ctx.Store(row+wYTD, 0)
			if err := db.Warehouses.Put(ctx, WarehouseKey(w), row); err != nil {
				return err
			}
			for d := 0; d < cfg.Districts; d++ {
				row, err := db.Heap.Alloc(ctx, districtRowBytes)
				if err != nil {
					return err
				}
				ctx.Store(row+dTax, uint64(d)*15)
				ctx.Store(row+dNextOID, 1)
				ctx.Store(row+dYTD, 0)
				ctx.Store(row+dDelivOID, 1)
				if err := db.Districts.Put(ctx, db.DistrictKey(w, d), row); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Items and stock, batched. A batch of 64 items with four
	// warehouses' stock writes ≈4.3 K words into B+-tree tables, well
	// inside the 16 383 writes a default DudeTM pool lets one
	// transaction log (256 items took ≈17.4 K).
	const batch = 64
	for start := 0; start < cfg.Items; start += batch {
		end := start + batch
		if end > cfg.Items {
			end = cfg.Items
		}
		if err := txRun(func(ctx memdb.Ctx) error {
			for i := start; i < end; i++ {
				row, err := db.Heap.Alloc(ctx, 8)
				if err != nil {
					return err
				}
				ctx.Store(row+iPrice, uint64(100+i%9900)) // $1.00-$99.99
				if err := db.Items.Put(ctx, ItemKey(i), row); err != nil {
					return err
				}
				for w := 0; w < cfg.Warehouses; w++ {
					srow, err := db.Heap.Alloc(ctx, 16)
					if err != nil {
						return err
					}
					ctx.Store(srow+sQuantity, 100)
					ctx.Store(srow+sYTD, 0)
					if err := db.Stocks.Put(ctx, db.StockKey(w, i), srow); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	// Customers, batched.
	for w := 0; w < cfg.Warehouses; w++ {
		for d := 0; d < cfg.Districts; d++ {
			for start := 0; start < cfg.Customers; start += batch {
				end := start + batch
				if end > cfg.Customers {
					end = cfg.Customers
				}
				w, d, start, end := w, d, start, end
				if err := txRun(func(ctx memdb.Ctx) error {
					for c := start; c < end; c++ {
						row, err := db.Heap.Alloc(ctx, customerRowBytes)
						if err != nil {
							return err
						}
						ctx.Store(row+cDiscount, uint64(c%500)) // 0-5%
						ctx.Store(row+cBalance, balBias)        // zero balance
						if err := db.Customers.Put(ctx, db.CustomerKey(w, d, c), row); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Input is one New Order request, generated outside the transaction so
// the same input can be retried and so static (NVML-style) systems can
// derive their lock sets from it.
type Input struct {
	W, D, C int
	Items   []int // item ids
	Qty     []int
}

// GenInput draws a New Order for home warehouse w.
func (db *DB) GenInput(rng *rand.Rand, w int) Input {
	cfg := db.Cfg
	n := 5 + rng.Intn(11) // 5-15 order lines per spec
	in := Input{
		W:     w,
		D:     rng.Intn(cfg.Districts),
		C:     rng.Intn(cfg.Customers),
		Items: make([]int, n),
		Qty:   make([]int, n),
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		for {
			it := rng.Intn(cfg.Items)
			if !seen[it] {
				seen[it] = true
				in.Items[i] = it
				break
			}
		}
		in.Qty[i] = 1 + rng.Intn(10)
	}
	return in
}

// NewOrder executes the New Order transaction body.
func (db *DB) NewOrder(ctx memdb.Ctx, in Input) error {
	wrow, ok := db.Warehouses.Get(ctx, WarehouseKey(in.W))
	if !ok {
		panic("tpcc: missing warehouse")
	}
	wtax := ctx.Load(wrow + wTax)

	drow, ok := db.Districts.Get(ctx, db.DistrictKey(in.W, in.D))
	if !ok {
		panic("tpcc: missing district")
	}
	dtax := ctx.Load(drow + dTax)
	oid := ctx.Load(drow + dNextOID)
	ctx.Store(drow+dNextOID, oid+1)

	crow, ok := db.Customers.Get(ctx, db.CustomerKey(in.W, in.D, in.C))
	if !ok {
		panic("tpcc: missing customer")
	}
	disc := ctx.Load(crow + cDiscount)
	ctx.Store(crow+cLastOID, oid)
	ctx.Store(crow+cLastD, uint64(in.D))

	orow, err := db.Heap.Alloc(ctx, orderRowBytes)
	if err != nil {
		return err
	}
	ctx.Store(orow+oCID, uint64(in.C))
	ctx.Store(orow+oOLCnt, uint64(len(in.Items)))
	ctx.Store(orow+oEntryD, oid) // logical timestamp
	ctx.Store(orow+oCarrier, 0)  // undelivered
	if err := db.Orders.Put(ctx, db.OrderKey(in.W, in.D, oid), orow); err != nil {
		return err
	}
	if err := db.NewOrders.Put(ctx, db.OrderKey(in.W, in.D, oid), oid); err != nil {
		return err
	}

	for i, item := range in.Items {
		irow, ok := db.Items.Get(ctx, ItemKey(item))
		if !ok {
			panic("tpcc: missing item")
		}
		price := ctx.Load(irow + iPrice)

		srow, ok := db.Stocks.Get(ctx, db.StockKey(in.W, item))
		if !ok {
			panic("tpcc: missing stock")
		}
		q := ctx.Load(srow + sQuantity)
		qty := uint64(in.Qty[i])
		if q >= qty+10 {
			q -= qty
		} else {
			q = q - qty + 91
		}
		ctx.Store(srow+sQuantity, q)
		ctx.Store(srow+sYTD, ctx.Load(srow+sYTD)+qty)

		amount := qty * price
		amount = amount * (10000 + wtax + dtax) / 10000
		amount = amount * (10000 - disc) / 10000

		olrow, err := db.Heap.Alloc(ctx, orderLineRowBytes)
		if err != nil {
			return err
		}
		ctx.Store(olrow+olItem, uint64(item))
		ctx.Store(olrow+olSupply, uint64(in.W))
		ctx.Store(olrow+olQty, qty)
		ctx.Store(olrow+olAmount, amount)
		ctx.Store(olrow+olDelivD, 0)
		if err := db.OrderLines.Put(ctx, db.OrderLineKey(in.W, in.D, oid, i), olrow); err != nil {
			return err
		}
	}
	return nil
}

// NextOID reads a district's next order id (for validation in tests).
func (db *DB) NextOID(ctx memdb.Ctx, w, d int) uint64 {
	drow, ok := db.Districts.Get(ctx, db.DistrictKey(w, d))
	if !ok {
		panic("tpcc: missing district")
	}
	return ctx.Load(drow + dNextOID)
}
