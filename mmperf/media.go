package main

import (
	"crypto/sha256"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sync/atomic"
	"time"
	"unsafe"

	"mmconf/internal/client"
	"mmconf/internal/document"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/server"
)

// media-miss: two callers fetch images and multi-layer streams (whole and
// truncated to one layer) and decode them on the client. The catalog is
// more than twice the server content cache and is walked in one fixed
// order, so each key is fetched again only after every other key has
// been: every fetch misses the (LRU) cache and reads the CAS. The walk's
// order does not depend on the seed — stream fetches, whose client decode
// is the costliest op, sit evenly between the image fetches — so how the
// two callers' ops overlap is the same on every seed.
const (
	mediaImages    = 192     // images, 64 KiB each
	mediaBases     = 8       // distinct phantoms the images are derived from
	mediaStreams   = 8       // multi-layer streams
	mediaImageSide = 256     // image phantom side, pixels
	mediaCmpSide   = 48      // stream phantom side, pixels
	mediaCache     = 4 << 20 // server content cache bytes
)

// mediaKey is one fetch in the catalog walk.
type mediaKey struct {
	id     uint64
	stream bool
	layers int // stream layers fetched (0: whole stream)
	// what the benchmark computed when it generated the object
	digest [32]byte // image payload SHA-256
	length int      // stream payload bytes
	raster uint64   // hash of the locally decoded raster
}

type mediaStream struct {
	id           uint64
	header, body []byte
	base         int // payload bytes of the first layer
}

type mediaMiss struct {
	st      *standalone
	clients []*client.Client
	keys    []mediaKey
	cursor  atomic.Uint64
	images  []uint64
	streams []mediaStream
	hseed   maphash.Seed
	chk     checker
}

func setupMedia(e *env) (fixture, error) {
	f := &mediaMiss{hseed: maphash.MakeSeed()}
	rng := rand.New(rand.NewSource(e.seed))
	var images [][]byte
	for b := 0; b < mediaBases; b++ {
		base, err := image.Phantom(mediaImageSide, mediaImageSide, e.seed*1000+int64(b))
		if err != nil {
			return nil, err
		}
		for i := b; i < mediaImages; i += mediaBases {
			images = append(images, derive(base, rng).Encode())
		}
	}
	var streams []mediaStream
	var cmpKeys []mediaKey
	for s := 0; s < mediaStreams; s++ {
		g, err := image.Phantom(mediaCmpSide, mediaCmpSide, e.seed*1000+500+int64(s))
		if err != nil {
			return nil, err
		}
		enc, err := compress.Encode(g, compress.Options{})
		if err != nil {
			return nil, err
		}
		header, body, err := enc.Marshal()
		if err != nil {
			return nil, err
		}
		streams = append(streams, mediaStream{header: header, body: body, base: enc.PrefixBytes(1)})
		for _, layers := range []int{0, 1} {
			n := enc.PrefixBytes(layers)
			local, err := decodeStream(header, body[:n])
			if err != nil {
				return nil, err
			}
			cmpKeys = append(cmpKeys, mediaKey{stream: true, layers: layers, length: n, raster: f.rasterHash(local)})
		}
	}

	st, err := startServer(e.dir, server.Options{CacheBytes: mediaCache}, func(m *mediadb.MediaDB) error {
		cat := &document.Component{Name: "catalog", Label: "Imaging catalog"}
		for i, data := range images {
			id, err := m.PutImage(100, "", 0.05, data)
			if err != nil {
				return err
			}
			f.images = append(f.images, id)
			f.keys = append(f.keys, mediaKey{id: id, digest: sha256.Sum256(data)})
			cat.Children = append(cat.Children, mediaLeaf(fmt.Sprintf("img%03d", i), document.KindImage, id))
		}
		for i := range streams {
			id, err := m.PutCmp(fmt.Sprintf("study-%d.mml", i), streams[i].header, streams[i].body)
			if err != nil {
				return err
			}
			streams[i].id = id
			cmpKeys[2*i].id, cmpKeys[2*i+1].id = id, id
			cat.Children = append(cat.Children, mediaLeaf(fmt.Sprintf("cmp%03d", i), document.KindImageHighRes, id))
		}
		doc, err := document.New("catalog", "Imaging catalog", cat)
		if err != nil {
			return err
		}
		return m.PutDocument(doc)
	})
	if err != nil {
		return nil, err
	}
	f.st, f.streams = st, streams
	f.keys = interleave(f.keys, cmpKeys)
	var bytes int
	for _, data := range images {
		bytes += len(data)
	}
	if bytes <= 2*mediaCache {
		f.close()
		return nil, fmt.Errorf("catalog holds %d bytes, not more than twice the %d-byte cache", bytes, mediaCache)
	}
	for i := 0; i < f.callers(); i++ {
		c, err := client.Dial(st.addr, fmt.Sprintf("viewer%d", i))
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	// Warm-up: one whole walk fills the cache with the walk's tail, the
	// state every later fetch meets.
	var warm recorder
	for range f.keys {
		f.round(0, &warm, nil)
	}
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d fetches failed: %v", warm.failed, warm.attempted, warm.errs[0])
	}
	settle(f.counters, 600*time.Millisecond, 5*time.Second)
	return f, nil
}

// interleave spreads the stream keys evenly between the image keys.
func interleave(images, streams []mediaKey) []mediaKey {
	out := make([]mediaKey, 0, len(images)+len(streams))
	per := len(images) / len(streams)
	for i, k := range images {
		out = append(out, k)
		if (i+1)%per == 0 && (i+1)/per <= len(streams) {
			out = append(out, streams[(i+1)/per-1])
		}
	}
	return out
}

// derive makes a distinct image from a base phantom cheaply: a seeded
// shift, contrast and brightness change.
func derive(base *image.Gray, rng *rand.Rand) *image.Gray {
	g := base.Clone()
	shift := rng.Intn(len(g.Pix))
	gain, bias := 0.8+0.4*rng.Float64(), 0.1*rng.Float64()
	for i := range g.Pix {
		g.Pix[i] = math.Min(1, base.Pix[(i+shift)%len(base.Pix)]*gain+bias)
	}
	return g
}

func mediaLeaf(name string, kind document.MediaKind, id uint64) *document.Component {
	return &document.Component{Name: name, Label: name, Presentations: []document.Presentation{
		{Name: "full", Kind: kind, ObjectID: id, Bytes: 64 << 10},
		{Name: "hidden", Kind: document.KindHidden},
	}}
}

func decodeStream(header, body []byte) (*image.Gray, error) {
	s, err := compress.Unmarshal(header, body)
	if err != nil {
		return nil, err
	}
	return s.Decode(0)
}

// rasterHash hashes a raster's pixels exactly (bit patterns).
func (f *mediaMiss) rasterHash(g *image.Gray) uint64 {
	if len(g.Pix) == 0 {
		return 0
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&g.Pix[0])), len(g.Pix)*8)
	return maphash.Bytes(f.hseed, b)
}

func (f *mediaMiss) callers() int { return 2 }

func (f *mediaMiss) round(caller int, rec *recorder, tr *tracer) {
	k := f.keys[(f.cursor.Add(1)-1)%uint64(len(f.keys))]
	c := f.clients[caller]
	op := tr.op()
	start := time.Now()
	if k.stream {
		end := tr.begin(spanCmp, op, "op")
		g, n, err := c.GetCmp(k.id, k.layers)
		end()
		rec.done(start, err)
		if err != nil {
			return
		}
		if n != k.length {
			f.chk.fail("stream %d/%d layers: %d bytes, want %d", k.id, k.layers, n, k.length)
		} else if f.rasterHash(g) != k.raster {
			f.chk.fail("stream %d/%d layers: raster differs from the local decode", k.id, k.layers)
		}
		return
	}
	end := tr.begin(spanFetch, op, "op")
	data, err := c.GetImageBytes(k.id)
	end()
	if err != nil {
		rec.done(start, err)
		return
	}
	end = tr.begin(spanImgDecode, op, "op")
	_, derr := image.Decode(data)
	end()
	rec.done(start, nil)
	if derr != nil {
		f.chk.fail("image %d: %v", k.id, derr)
	} else if sha256.Sum256(data) != k.digest {
		f.chk.fail("image %d: payload SHA-256 differs from the generated object's", k.id)
	}
}

func (f *mediaMiss) verify() error { return f.chk.result() }

func (f *mediaMiss) counters() counters {
	c := counters{}
	serverCounters(f.st.srv, c)
	return c
}

func (f *mediaMiss) summaries() map[string]float64 {
	m := map[string]float64{}
	methodP50s(f.st.srv, m)
	return m
}

func (f *mediaMiss) probe(tr *tracer) error {
	for i := 0; i < 4*len(f.streams); i++ {
		s := f.streams[i%len(f.streams)]
		body := s.body
		if i%2 == 1 {
			body = body[:s.base]
		}
		end := tr.begin(spanCmpDecode, 0, "probe")
		_, err := decodeStream(s.header, body)
		end()
		if err != nil {
			return err
		}
	}
	cmps := make([]uint64, len(f.streams))
	for i, s := range f.streams {
		cmps[i] = s.id
	}
	return probeStore(tr, f.st.mdb, "catalog", f.images, cmps)
}

func (f *mediaMiss) close() {
	for _, c := range f.clients {
		c.Close()
	}
	if f.st != nil {
		f.st.close()
	}
}
